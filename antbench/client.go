package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client drives antserve over loopback. All requests share one transport
// that never holds more than maxConns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, maxConns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// op is one timed /sweep request. The client stamps the first line and the
// last byte and keeps the body; nothing is decoded until the checks run
// after the timed window.
type op struct {
	client, index int
	req           sweep
	firstLine     time.Duration // send to the first complete NDJSON line
	lastByte      time.Duration // send to the end of the body
	status        int
	body          []byte
	err           error
}

// sweep sends one request and reads the whole response into buf, which it
// grows as needed.
func (c *client) sweep(ctx context.Context, s sweep, buf []byte) op {
	o := op{req: s}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/sweep", bytes.NewReader(s.body()))
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if o.firstLine == 0 && bytes.IndexByte(buf[len(buf):len(buf)+n], '\n') >= 0 {
			o.firstLine = time.Since(start)
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			o.err = err
			break
		}
	}
	o.lastByte = time.Since(start)
	o.body = buf
	return o
}

// getJSON fetches path and decodes the JSON body into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// closedLoop runs clients concurrent closed loops: each client issues its
// next op only after the previous one completed, while more(j) allows it.
// It returns every op in completion order per client, clients concatenated.
func closedLoop(clients int, more func(j int) bool, do func(c, j int) op) []op {
	per := make([][]op, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; more(j); j++ {
				o := do(c, j)
				o.client, o.index = c, j
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	var out []op
	for _, ops := range per {
		out = append(out, ops...)
	}
	return out
}
