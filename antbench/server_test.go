package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLaunchRetriesAServerThatExitsWhileBooting stands in a binary that
// exits at once, as antserve does when its port was taken: launch must try
// three times, report the failure and leave no process behind.
func TestLaunchRetriesAServerThatExitsWhileBooting(t *testing.T) {
	bin := t.TempDir()
	script := "#!/bin/sh\necho 'listen tcp: address already in use' >&2\nexit 1\n"
	if err := os.WriteFile(filepath.Join(bin, "antserve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	b := &bench{bin: bin, work: t.TempDir()}
	defer b.killAll()
	_, _, _, err := b.launch(context.Background(), t.TempDir(), t.TempDir(), "antserve.log")
	if err == nil || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("launch error = %v, want the server's exit reason", err)
	}
	if len(b.procs) != 3 {
		t.Fatalf("launch started %d servers, want 3 attempts", len(b.procs))
	}
	for _, p := range b.procs {
		select {
		case <-p.done:
		default:
			t.Fatal("an attempt is still running")
		}
	}
}
