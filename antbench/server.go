package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"antsearch/internal/cache"
)

// serverProc is one running antserve child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	done    chan struct{}
	waitErr error
}

// startServer launches antserve with the benchmark's shared configuration:
// the given store and checkpoint directories, a checkpoint after every
// shard, and otherwise the defaults (4096-entry cache, adaptive split, no
// fsync). GOMAXPROCS is pinned so its shard plans match every host's.
func startServer(bin, storeDir, ckptDir, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(bin, "antserve"),
		"-addr", addr, "-store-dir", storeDir, "-checkpoint-dir", ckptDir, "-checkpoint-every", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting antserve: %w", err)
	}
	s := &serverProc{cmd: cmd, addr: addr, logPath: logPath, done: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitHealthy polls /healthz until the server answers {"status":"ok"}.
func (s *serverProc) waitHealthy(ctx context.Context, cl *client) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		var h struct {
			Status string `json:"status"`
		}
		err := cl.getJSON(ctx, "/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if err == nil {
			return fmt.Errorf("antserve reports status %q", h.Status)
		}
		select {
		case <-s.done:
			return fmt.Errorf("antserve exited during boot: %v; log: %s", s.waitErr, s.logTail())
		case <-ctx.Done():
			return fmt.Errorf("antserve did not become healthy: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the server down gracefully (SIGTERM: it compacts its store)
// and waits for it; a server that does not exit in time is killed.
func (s *serverProc) stop() error {
	select {
	case <-s.done:
		return fmt.Errorf("antserve exited early: %v; log: %s", s.waitErr, s.logTail())
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		if s.waitErr != nil {
			return fmt.Errorf("antserve shutdown: %v; log: %s", s.waitErr, s.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reports the outcome
		<-s.done
		return errors.New("antserve did not shut down within 20s and was killed")
	}
}

// kill ends the server without a graceful shutdown; used on error paths.
func (s *serverProc) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // already exiting is fine
	<-s.done
}

func (s *serverProc) logTail() string {
	b, _ := os.ReadFile(s.logPath) // best effort: the log only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// procCPU returns utime + stime of a live process, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns VmHWM (peak resident set) of a live process in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverStats mirrors antserve's /stats payload.
type serverStats struct {
	Cache           cache.Stats            `json:"cache"`
	Checkpoints     *cache.CheckpointStats `json:"checkpoints"`
	ShedSweeps      int64                  `json:"shed_sweeps"`
	AbandonedSweeps int64                  `json:"abandoned_sweeps"`
	TotalSweeps     int64                  `json:"total_sweeps"`
}

// statsDelta is what one timed run did, by the server's own counters.
type statsDelta struct {
	hits, misses, joined, evictions, persisted uint64
	storeErrors, storeRetries                  uint64
	saves, ckptErrors                          uint64
	shed, abandoned, sweeps                    int64
	loaded                                     uint64
}

func diffStats(before, after serverStats) statsDelta {
	d := statsDelta{
		hits:         after.Cache.Hits - before.Cache.Hits,
		misses:       after.Cache.Misses - before.Cache.Misses,
		joined:       after.Cache.Joined - before.Cache.Joined,
		evictions:    after.Cache.Evictions - before.Cache.Evictions,
		persisted:    after.Cache.Persisted - before.Cache.Persisted,
		storeErrors:  after.Cache.StoreErrors,
		storeRetries: after.Cache.StoreRetries,
		shed:         after.ShedSweeps,
		abandoned:    after.AbandonedSweeps,
		sweeps:       after.TotalSweeps - before.TotalSweeps,
		loaded:       after.Cache.Loaded,
	}
	if after.Checkpoints != nil && before.Checkpoints != nil {
		d.saves = after.Checkpoints.Saved - before.Checkpoints.Saved
		d.ckptErrors = after.Checkpoints.StoreErrors
	}
	return d
}

// reconcile checks the server's counters against what the client expects
// from the ops it sent: every computed cell is one miss and one persisted
// record, nothing failed, was shed or abandoned, and cold cells checkpoint.
func reconcile(d statsDelta, ops int, wantHits, wantMisses int, wantSaves bool) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(d.sweeps == int64(ops), "/stats total_sweeps rose by %d, the client sent %d", d.sweeps, ops)
	check(d.misses == uint64(wantMisses), "/stats misses rose by %d, the client expected %d computed cells", d.misses, wantMisses)
	check(d.hits == uint64(wantHits), "/stats hits rose by %d, the client expected %d", d.hits, wantHits)
	check(d.joined == 0, "/stats joined rose by %d, but no two in-flight requests share a cell", d.joined)
	check(d.persisted == d.misses, "/stats persisted rose by %d but misses by %d", d.persisted, d.misses)
	check(d.storeErrors == 0, "/stats store_errors is %d", d.storeErrors)
	check(d.shed == 0, "/stats shed_sweeps is %d", d.shed)
	check(d.abandoned == 0, "/stats abandoned_sweeps is %d", d.abandoned)
	check(d.ckptErrors == 0, "/stats checkpoints.store_errors is %d", d.ckptErrors)
	if wantSaves {
		check(d.saves > 0, "/stats checkpoints.saved did not rise on a multi-shard workload")
	}
	return bad
}
