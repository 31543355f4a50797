// The user module stands for a separate module that imports the root
// module's internal packages, the way bench/ does.
package main

import "fix/internal/a"

func main() {
	a.UsedByUser()
	box := a.Box[int]{V: 1}
	_ = box.Get()
}
