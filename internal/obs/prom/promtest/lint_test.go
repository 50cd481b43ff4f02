package promtest

import (
	"strings"
	"testing"
)

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{
			"sample before HELP",
			"foo 1\n",
			"before HELP",
		},
		{
			"duplicate series",
			"# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n",
			"duplicate series",
		},
		{
			"duplicate HELP",
			"# HELP foo x\n# HELP foo y\n",
			"duplicate HELP",
		},
		{
			"histogram without +Inf",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 5\n",
			"missing +Inf",
		},
		{
			"non-cumulative buckets",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
			"not cumulative",
		},
		{
			"+Inf disagrees with _count",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 6\nh_sum 1\n",
			"_count",
		},
	}
	for _, tc := range cases {
		err := Lint(tc.text)
		if err == nil {
			t.Errorf("%s: lint passed, want error containing %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	if err := Lint("# HELP ok x\n# TYPE ok gauge\nok{a=\"b\"} 1\nok{a=\"c\"} 2\n"); err != nil {
		t.Errorf("valid exposition flagged: %v", err)
	}
}
