package a

import (
	"testing"

	"fix/internal/support"
)

func TestUnused(t *testing.T) {
	Unused()
	support.Helper(Limit)
	_ = Impl{}.Stop
	_ = Box[int]{W: 1}
}

func TestConfig(t *testing.T) {
	_ = Config{ReadOnly: 1, Kept: 1, Shared: &Counter{}}
}
