package deadcode

import (
	"testing"

	"sprite/internal/analysis/linttest"
)

func TestDeadcode(t *testing.T) {
	linttest.RunTree(t, Analyzer, "a")
}
