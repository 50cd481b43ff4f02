package analysis_test

import (
	"testing"

	"github.com/asplos17/nr/internal/analysis"
	"github.com/asplos17/nr/internal/analysis/analysistest"
)

func TestSpinLoop(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SpinLoop, "spinloop")
}

func TestObsGuard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ObsGuard, "obsguard")
}

func TestNoIO(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoIO, "noio")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockOrder, "lockorder")
}

func TestNoBlock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoBlock, "noblock")
}

func TestNoIODeep(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoIO, "noiodeep")
}
