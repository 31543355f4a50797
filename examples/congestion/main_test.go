package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden runs the example at its fixed seed and compares its stdout
// with testdata/golden.txt, so an API change that breaks the example or
// shifts its numbers fails the test suite.
func TestGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/golden.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}
