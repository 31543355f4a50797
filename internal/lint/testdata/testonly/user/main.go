// The user module stands for a separate module that imports the root
// module's packages, the way bench/ does.
package main

import (
	"fix/api"
	"fix/internal/a"
)

func main() {
	a.UsedByUser()
	_ = api.Run(api.Options{})
	box := a.Box[int]{V: 1}
	_ = box.Get()
}
