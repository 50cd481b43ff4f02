package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/topology"
)

// TestValidateDurability pins the -appendonly startup guard through run:
// durable mode is NR-only (validateDurability). The error text is part of
// the operator surface, and a refused start leaves nothing in the data
// directory.
func TestValidateDurability(t *testing.T) {
	cases := []struct {
		name    string
		method  string
		wantErr string // empty = accept
	}{
		{"nr", miniredis.MethodNR, ""},
		{"wrong method", "lock", "-appendonly requires -method nr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sig := make(chan os.Signal, 1)
			sig <- os.Interrupt // an accepted start serves, then shuts down at once
			err := run([]string{"-addr", "127.0.0.1:0", "-appendonly", "-dir", dir,
				"-method", tc.method,
				"-workers", "2", "-nodes", "2", "-cores", "2", "-smt", "1"}, sig, nil)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run = %v, want a clean start and shutdown", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run = %v, want error containing %q", err, tc.wantErr)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("refused start left %d entries in -dir", len(left))
			}
		})
	}
}

// TestCleanShutdownKeepsAcknowledgedWrites: every ZADD the durable server
// answered before a shutdown signal is recovered by the next start, for
// each signal main listens for. The signal is a real one, delivered to this
// process through the same Notify set main uses, the instant the last reply
// has been read and with the client still connected.
func TestCleanShutdownKeepsAcknowledgedWrites(t *testing.T) {
	const writes = 200
	for _, s := range shutdownSignals {
		t.Run(s.String(), func(t *testing.T) {
			dir := t.TempDir()
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, shutdownSignals...)
			defer signal.Stop(sig)

			addr := make(chan net.Addr, 1)
			exited := make(chan error, 1)
			go func() {
				exited <- run([]string{"-addr", "127.0.0.1:0", "-appendonly", "-dir", dir,
					"-workers", "2", "-nodes", "2", "-cores", "2", "-smt", "1"},
					sig, func(a net.Addr) { addr <- a })
			}()
			var conn net.Conn
			select {
			case a := <-addr:
				var err error
				if conn, err = net.Dial("tcp", a.String()); err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
			case err := <-exited:
				t.Fatalf("server exited before listening: %v", err)
			}
			replies := bufio.NewReader(conn)
			for i := 0; i < writes; i++ {
				if _, err := fmt.Fprintf(conn, "ZADD board %d member%d\r\n", i, i); err != nil {
					t.Fatal(err)
				}
				if line, err := replies.ReadString('\n'); err != nil || line != ":1\r\n" {
					t.Fatalf("ZADD %d: reply %q, %v", i, line, err)
				}
			}
			if err := syscall.Kill(os.Getpid(), s.(syscall.Signal)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-exited:
				if err != nil {
					t.Fatalf("run returned %v after %v", err, s)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("server still running 10s after %v", s)
			}

			_, p, err := miniredis.NewNRShared(topology.New(2, 2, 1), 1, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if p.Recovered.Replayed != writes || p.Recovered.Dropped != 0 {
				t.Errorf("recovered %d ops (dropped %d) after %v, want all %d acknowledged writes",
					p.Recovered.Replayed, p.Recovered.Dropped, s, writes)
			}
		})
	}
}
