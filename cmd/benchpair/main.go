// Command benchpair runs the repository's benchmark at a git revision and at
// the working tree in alternating pairs, and compares each end-to-end
// metric against its bound in BENCHMARK.json.
//
//	go run ./cmd/benchpair -rev HEAD -workload lib-durable -pairs 10
//
// Each side builds ./benchmark in a git worktree under .bench_build/: the
// revision as committed, and the working tree's tracked files as
// `git stash create` records them (stage a new file to include it). Pair i
// runs the revision first when i is even and the working tree first when i
// is odd, each binary from its own checkout, so a wire workload's child
// server is built from that side's source. Every run measures for
// BENCHMARK.json's run_seconds. It prints, per metric, both medians and
// quartiles, the pairs the working tree won and a verdict, and exits 1 when
// a metric is worse than its bound or unresolved, or the working tree
// failed more runs or operations than the revision.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		rev      = flag.String("rev", "", "the git revision to compare the working tree against")
		workload = flag.String("workload", "", "the benchmark workload (BENCHMARK.json)")
		pairs    = flag.Int("pairs", 10, "alternating pairs of runs")
	)
	flag.Parse()
	if *rev == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "benchpair: -rev and -workload are required, -pairs at least 1")
		os.Exit(2)
	}
	worse, err := run(*rev, *workload, *pairs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
	if worse {
		os.Exit(1)
	}
}

// side is one of the two builds being compared.
type side struct {
	name, rev, dir, bin string
}

func run(rev, workload string, pairs int) (worse bool, err error) {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if sp.RunSeconds < 1 {
		return false, errors.New("BENCHMARK.json: run_seconds must be at least 1")
	}
	head, err := git(root, "stash", "create")
	if err != nil {
		return false, err
	}
	if head == "" { // nothing uncommitted
		head = "HEAD"
	}
	scratch := filepath.Join(root, ".bench_build", "benchpair")
	sides := [2]*side{
		{name: "base", rev: rev},
		{name: "change", rev: head},
	}
	for _, s := range sides {
		s.dir, s.bin = filepath.Join(scratch, s.name), filepath.Join(scratch, s.name+".bin")
	}
	// The worktrees hold Go sources, which make tier1's greps over the
	// repository fail, so they go on every return, a signal's included.
	remove := func() {
		for _, s := range sides {
			if _, err := os.Stat(s.dir); err != nil {
				continue // not checked out, or already removed
			}
			if _, err := git(root, "worktree", "remove", "--force", s.dir); err != nil {
				fmt.Fprintln(os.Stderr, "benchpair:", err)
			}
		}
	}
	defer remove()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, s := range sides {
		if err := checkout(root, s); err != nil {
			return false, err
		}
	}
	runs := make([]pair, 0, pairs)
	for i := range pairs {
		var p pair
		order := sides
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			v, err := runOnce(ctx, s, workload, sp.RunSeconds)
			if err != nil {
				return false, fmt.Errorf("pair %d, %s: %w", i+1, s.name, err)
			}
			if s == sides[0] {
				p.base = v
			} else {
				p.head = v
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
		runs = append(runs, p)
	}
	rows := summarize(runs, sp.EndToEnd)
	printSummary(os.Stdout, workload, runs, rows)
	for _, r := range rows {
		worse = worse || r.verdict == verdictWorse || r.verdict == verdictUnresolved
	}
	br, hr, bo, ho := failures(runs)
	return worse || hr > br || ho > bo, nil
}

// checkout makes s.dir a fresh worktree at s.rev and builds the benchmark
// there.
func checkout(root string, s *side) error {
	_, _ = git(root, "worktree", "remove", "--force", s.dir) // fails unless a run was cut short
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if _, err := git(root, "worktree", "prune"); err != nil {
		return err
	}
	if _, err := git(root, "worktree", "add", "--detach", s.dir, s.rev); err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", s.bin, "./benchmark")
	build.Dir, build.Stdout, build.Stderr = s.dir, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building %s at %s: %w", s.name, s.rev, err)
	}
	return nil
}

// runOnce runs the side's benchmark from its checkout and reads its last
// line. A run whose checks failed exits non-zero and still prints it. When
// ctx ends, the run gets SIGTERM, on which the benchmark stops its own
// child server and removes its files.
func runOnce(ctx context.Context, s *side, workload string, seconds int) (verdictLine, error) {
	cmd := exec.CommandContext(ctx, s.bin, "-workload", workload, "-seconds", strconv.Itoa(seconds))
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	var out bytes.Buffer
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.dir, &out, os.Stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return verdictLine{}, ctx.Err()
	}
	v, err := parseVerdict(out.String())
	if err != nil {
		return v, errors.Join(err, runErr)
	}
	return v, nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
