package cache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// logStore is the crash-safe file layout both store tiers share: under one
// directory, an append-only NDJSON log next to a compacted NDJSON snapshot,
// guarded by an exclusive flock on a lock file of the tier's own. Every crash
// point leaves a loadable state: appends are single line-writes framed by
// writeLine (a torn line costs itself alone and is skipped on replay), and
// compaction writes the new snapshot to a temp file, fsyncs it and renames it
// into place before it truncates the log. The tiers embed it and keep their
// policy to themselves: what a record is, how appends retry, which records a
// replay keeps.
type logStore struct {
	// mu guards the fields below and the embedding tier's own state.
	mu       sync.Mutex
	dir      string
	snapshot string // snapshot file name under dir
	logName  string // log file name under dir
	log      *os.File
	lock     *os.File // holds the directory's exclusive flock
	closed   bool
	// torn reports that the log may end in a partial line: a crash before
	// open, or a failed write since, may have left one. The next line starts
	// with a newline that ends it.
	torn bool
	// appendFault, when non-nil, is consulted before every physical log
	// write; a non-nil return fails the attempt. It exists so tests can
	// inject append failures, torn ones included, without breaking the file.
	appendFault func() error
}

// maxLineBytes caps one replayed line. A longer one — a crash can leave an
// unflushed region of NUL bytes with no newline — is skipped unbuffered up to
// its newline and counted, never an error.
const maxLineBytes = 1 << 24

// open creates dir if needed, claims the flock named lockName under it,
// sweeps orphaned snapshot temp files and opens the log for appending. The
// lock is per tier, so tiers with distinct file names may share a directory,
// while two processes running the same tier fail loudly instead of
// truncating each other's acknowledged writes at compaction time.
func (l *logStore) open(dir, lockName, snapshot, logName string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := lockFileExclusive(lock.Fd()); err != nil {
		lock.Close() //antlint:allow storeerr the claim failed; nothing was written through this handle
		return fmt.Errorf("directory %s is already in use by another process: %w", dir, err)
	}
	// A crash between writing a temp file and renaming it orphans it;
	// sweeping here (safe: the lock guarantees no live peer is
	// mid-compaction) keeps repeated crashes from accumulating full-size
	// snapshots forever.
	if orphans, err := filepath.Glob(filepath.Join(dir, snapshot+".tmp-*")); err == nil {
		for _, orphan := range orphans {
			_ = os.Remove(orphan) //antlint:allow storeerr best-effort sweep: a surviving orphan is swept again at the next open
		}
	}
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close() //antlint:allow storeerr open failed; the claim is being abandoned, nothing acknowledged can be lost
		return err
	}
	l.dir, l.snapshot, l.logName, l.log, l.lock = dir, snapshot, logName, log, lock
	l.torn = true
	return nil
}

// writeLine appends line to the log as one line-write. The first write after
// open, and every write after a failed one, starts with a newline, which ends
// any partial line a crash or the failed write left behind: the torn line is
// skipped on replay and this record still parses (blank lines replay as
// nothing). The caller holds l.mu.
func (l *logStore) writeLine(line []byte) error {
	if l.torn {
		line = append([]byte{'\n'}, line...)
	}
	var err error
	if l.appendFault != nil {
		err = l.appendFault()
	}
	if err == nil {
		_, err = l.log.Write(append(line, '\n'))
	}
	l.torn = err != nil
	return err
}

// replay calls fn with every non-blank line of the snapshot, then of the log,
// so records written later replay later. A missing file replays as empty. A
// line longer than maxLineBytes is skipped without being passed to fn or held
// whole in memory; replay returns how many it skipped. The caller holds l.mu
// or is still opening the store.
func (l *logStore) replay(fn func(line []byte)) (int, error) {
	overlong := 0
	for _, name := range []string{l.snapshot, l.logName} {
		f, err := os.Open(filepath.Join(l.dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return overlong, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
		skipping := false
		sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
			if skipping {
				i := bytes.IndexByte(data, '\n')
				if i < 0 {
					return len(data), nil, nil
				}
				skipping = false
				return i + 1, nil, nil
			}
			advance, token, err := bufio.ScanLines(data, atEOF)
			if advance == 0 && len(data) >= maxLineBytes {
				// The buffer is full and holds no newline: drop it and the
				// rest of the line instead of failing with ErrTooLong.
				skipping = true
				overlong++
				return len(data), nil, nil
			}
			return advance, token, err
		})
		for sc.Scan() {
			if line := sc.Bytes(); len(bytes.TrimSpace(line)) > 0 {
				fn(line)
			}
		}
		f.Close() //antlint:allow storeerr read-only handle; a close failure cannot lose data
		if err := sc.Err(); err != nil {
			return overlong, fmt.Errorf("%s: %w", name, err)
		}
	}
	return overlong, nil
}

// compact replaces the snapshot with the records write encodes and then
// truncates the log. A crash before the rename leaves the previous snapshot
// and the full log (nothing lost); a crash between rename and truncate leaves
// the new snapshot and the stale log, whose records replay again — harmless,
// since a key's value never changes. The caller holds l.mu.
func (l *logStore) compact(write func(enc *json.Encoder) error) error {
	tmp, err := os.CreateTemp(l.dir, l.snapshot+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //antlint:allow storeerr no-op after a successful rename; a leftover temp is swept at the next open
	w := bufio.NewWriter(tmp)
	err = write(json.NewEncoder(w))
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close() //antlint:allow storeerr the write error propagates; the temp file is doomed either way
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(l.dir, l.snapshot)); err != nil {
		return err
	}
	if err := l.log.Truncate(0); err != nil {
		return fmt.Errorf("truncate log: %w", err)
	}
	return nil
}

// close closes the log and releases the directory lock, so another process
// may open the tier afterwards. It is idempotent; the caller holds l.mu.
func (l *logStore) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.log.Close()
	if cerr := l.lock.Close(); err == nil {
		err = cerr
	}
	return err
}
