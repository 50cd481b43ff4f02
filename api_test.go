package nr_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from go doc")

// TestPublicAPI pins the package's exported surface: `go doc -short .`
// must print exactly testdata/api.golden, so every addition to or removal
// from the public API shows up as a diff of that file. Regenerate it with
// `go test -run TestPublicAPI -update .` after a deliberate change.
func TestPublicAPI(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(gobin, "doc", "-short", ".").Output()
	if err != nil {
		t.Fatalf("go doc -short .: %v", err)
	}
	const golden = "testdata/api.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("go doc -short . differs from %s (rerun with -update if the API change is deliberate)\ngot:\n%s", golden, out)
	}
}
