package api

import "testing"

func TestRun(t *testing.T) {
	Reset()
	if Run(Options{Verbose: true}) != 1 {
		t.Fatal("verbose run")
	}
}
