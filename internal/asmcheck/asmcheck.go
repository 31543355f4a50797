// Package asmcheck holds the assembly check that the simulation packages'
// tests share: TestNoFusedMultiplyAdd in quantum, sim, core, device,
// werner, hardware, routing and stats calls NoFusedMultiplyAdd. Only
// _test.go files import this package.
package asmcheck

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches an arm64 fused multiply-add in a -S listing line and
// captures its file:line and mnemonic.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\b`)

// NoFusedMultiplyAdd cross-compiles the package in the test's working
// directory for arm64, whose back end fuses x*y + z into one instruction,
// and fails on every fused multiply-add in its assembly, code inlined from
// other packages included, naming its file and line. A fused product
// rounds once where amd64 rounds twice, so the bit-identity pins, recorded
// on amd64, would not hold there. Skipped under -short: with a cold build
// cache the cross-compile builds the standard library for arm64 first.
func NoFusedMultiplyAdd(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("cross-compiles the package for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "FMULD") {
		t.Fatalf("the arm64 listing shows no floating-point product; is it the assembly?\n%.2000s", out)
	}
	var fused []string
	for _, line := range strings.Split(string(out), "\n") {
		if m := fusedOp.FindStringSubmatch(line); m != nil {
			fused = append(fused, m[1]+": "+m[2])
		}
	}
	if len(fused) > 0 {
		t.Errorf("%d fused multiply-adds in the arm64 build; round each product that feeds a sum (linalg.CMul, float64(x*y)):\n  %s",
			len(fused), strings.Join(fused, "\n  "))
	}
}
