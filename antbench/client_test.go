package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientNeverExceedsConnectionBudget drives more concurrent closed
// loops than the budget allows, plus /stats scrapes, and counts the TCP
// connections the server saw.
func TestClientNeverExceedsConnectionBudget(t *testing.T) {
	var conns, open, peak atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			fmt.Fprintln(w, `{"cache":{}}`)
			return
		}
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "{\"index\":%d}\n", i)
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			conns.Add(1)
			n := open.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()

	const budget = 2
	cl := newClient(strings.TrimPrefix(srv.URL, "http://"), budget)
	defer cl.close()
	w, _ := newWorkload(tinyGrid, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var st serverStats
			if err := cl.getJSON(context.Background(), "/stats", &st); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ops := closedLoop(5, func(j int) bool { return j < 6 }, func(c, j int) op {
		return cl.sweep(context.Background(), w.opSweep(c%w.spec.clients, j), nil)
	})
	wg.Wait()
	if len(ops) != 30 {
		t.Fatalf("%d ops, want 30", len(ops))
	}
	for _, o := range ops {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("op failed: %v (status %d)", o.err, o.status)
		}
		if o.firstLine <= 0 || o.firstLine > o.lastByte || strings.Count(string(o.body), "\n") != 3 {
			t.Fatalf("op stamps first line %v, last byte %v, body %q", o.firstLine, o.lastByte, o.body)
		}
	}
	if c := conns.Load(); c > budget {
		t.Fatalf("client opened %d connections, budget %d", c, budget)
	}
	if p := peak.Load(); p > budget {
		t.Fatalf("%d connections open at once, budget %d", p, budget)
	}
}
