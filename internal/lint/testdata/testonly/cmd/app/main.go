package main

import (
	"encoding/json"
	"fmt"

	"fix/internal/a"
	"fix/internal/b"
)

func main() {
	var impl a.Impl
	b.Use(impl)
	fmt.Println(impl)

	cfg := a.Config{Keyed: 1}
	cfg.Assigned = 2
	cfg.Bumped++
	set(&cfg.Addr)
	cfg.Count.Inc()
	cfg.Shared.Inc() // a call through a pointer field does not write it
	fmt.Println(cfg.Keyed, cfg.Assigned, cfg.Bumped, cfg.Addr, cfg.Count.N, cfg.ReadOnly, cfg.Kept)

	p := a.Pair{1, 2}
	m := a.Mirror(p)
	var w a.Wire
	_ = json.Unmarshal([]byte(`{}`), &w)
	g := decode[a.Generic]([]byte(`{}`))
	fmt.Println(p.X, p.Y, m.X, m.Y, w.Name, w.Inner.V, g.G)
}

func set(p *int) { *p = 1 }

// decode hands a type parameter's pointer to encoding/json.
func decode[T any](data []byte) T {
	var v T
	_ = json.Unmarshal(data, &v)
	return v
}
