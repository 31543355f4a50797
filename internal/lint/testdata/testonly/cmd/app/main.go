package main

import (
	"fmt"

	"fix/internal/a"
	"fix/internal/b"
)

func main() {
	var impl a.Impl
	b.Use(impl)
	fmt.Println(impl)
}
