package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// record is one answered query.
type record struct {
	qid       int
	text      string
	transport string // "" in process, else "wire" or "http"
	ans       *core.Answer
	err       error
	out       outcome
	late      time.Duration // open loop: how late the generator sent it
}

// closedLoop runs callers goroutines, each sending its next query only
// after the previous one returned. It stops handing out queries once
// minDur has passed and at least minN queries completed (or at maxDur, or
// when next runs dry). after runs on the caller's goroutine once a query
// returns, outside its measured interval.
func closedLoop(eng *core.Engine, next func() (string, bool), callers int, minDur, maxDur time.Duration, minN int, after func(*record)) ([]record, time.Duration) {
	var (
		mu    sync.Mutex
		recs  []record
		qid   atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	take := func() (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		el := time.Since(start)
		if el >= maxDur || (el >= minDur && len(recs) >= minN) {
			return "", false
		}
		return next()
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				text, ok := take()
				if !ok {
					return
				}
				r := record{qid: int(qid.Add(1)), text: text}
				r.out.due = time.Now()
				r.ans, r.err = eng.Run(context.Background(), text)
				r.out.done = time.Now()
				r.out.failed = r.err != nil
				if after != nil {
					after(&r)
				}
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// listNext hands out texts in order.
func listNext(texts []string) func() (string, bool) {
	i := 0
	return func() (string, bool) {
		if i >= len(texts) {
			return "", false
		}
		i++
		return texts[i-1], true
	}
}

// client is one connection to the aqpd stack.
type client struct {
	transport string
	wc        *wire.Client
	hc        *http.Client
	url       string
}

func dialClients(sys *system) ([]*client, error) {
	wc, err := wire.Dial(sys.wireAddr, wire.ClientOptions{Timeout: 60 * time.Second})
	if err != nil {
		return nil, err
	}
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
	return []*client{
		{transport: "wire", wc: wc},
		{transport: "http", hc: hc, url: "http://" + sys.httpAddr + "/query"},
	}, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		if c.wc != nil {
			c.wc.Close()
		}
		if c.hc != nil {
			c.hc.CloseIdleConnections()
		}
	}
}

// query sends text and returns the answer as rows of cell texts in the
// wire column order (group key when grouped, then per aggregate estimate,
// lo, hi, rel_err, technique, verdict, exact), without the trace id.
func (c *client) query(text string) ([][]string, error) {
	if c.wc != nil {
		rs, err := c.wc.Query(text)
		if err != nil {
			return nil, err
		}
		rows := make([][]string, len(rs.Rows))
		for i, row := range rs.Rows {
			rows[i] = row[:len(row)-1] // drop trace_id
		}
		return rows, nil
	}
	body, _ := json.Marshal(serve.QueryRequest{SQL: text})
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	grouped := false
	for _, g := range qr.Groups {
		grouped = grouped || g.Key != ""
	}
	var rows [][]string
	for _, g := range qr.Groups {
		var row []string
		if grouped {
			row = append(row, g.Key)
		}
		for _, a := range g.Aggs {
			row = append(row, serve.FormatF64(float64(a.Estimate)), serve.FormatF64(float64(a.Lo)),
				serve.FormatF64(float64(a.Hi)), serve.FormatF64(float64(a.RelErr)),
				a.Technique, a.Verdict, exactFlag(a.Exact))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func exactFlag(exact bool) string {
	if exact {
		return "1"
	}
	return "0"
}

// answerRows renders an in-process answer the way both transports must
// carry it: every float as serve.FormatF64 text.
func answerRows(ans *core.Answer) [][]string {
	grouped := false
	for _, g := range ans.Groups {
		grouped = grouped || g.Key != ""
	}
	var rows [][]string
	for _, g := range ans.Groups {
		var row []string
		if grouped {
			row = append(row, g.Key)
		}
		for _, a := range g.Aggs {
			row = append(row, serve.FormatF64(a.Estimate), serve.FormatF64(a.ErrorBar.Lo()),
				serve.FormatF64(a.ErrorBar.Hi()), serve.FormatF64(a.RelErr),
				a.Technique, serve.Verdict(a), exactFlag(a.Exact))
		}
		rows = append(rows, row)
	}
	return rows
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// arrival is one open-loop query: its scheduled send time and text.
type arrival struct {
	due  time.Time
	text string
	// refresh asks the writer to rebuild the sample when this query is due.
	refresh bool
}

// servedRun holds the open-loop state shared across rungs.
type servedRun struct {
	sys      *system
	clients  []*client
	verified atomic.Int64 // transport answers compared with the in-process text
	// refs keeps one in-process answer per (generation, text) for the
	// ground-truth check of exact aggregates.
	refMu sync.Mutex
	refs  map[string]*core.Answer
	// refreshes are the writer's BuildSamples durations.
	refreshMu sync.Mutex
	refreshes []time.Duration
	// rec, when set, receives the transport and server-side spans.
	rec *recorder
	qid atomic.Int64
}

// openLoop sends the arrivals on schedule over both connections: each
// query goes to whichever connection is free, waiting in order when both
// are busy, and its latency runs from its due time. A writer goroutine
// rebuilds the sample when a refresh arrival comes due.
func (s *servedRun) openLoop(arrivals []arrival, sampleRows int) []record {
	type job struct {
		arrival
		sent time.Time
	}
	jobs := make(chan job, len(arrivals))
	refresh := make(chan struct{}, len(arrivals))
	var recs []record
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for j := range jobs {
				r := s.send(c, j.text, j.due)
				r.late = j.sent.Sub(j.due)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}(c)
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for range refresh {
			t0 := time.Now()
			if err := s.sys.eng.BuildSamples(tableName, sampleRows); err == nil {
				s.refreshMu.Lock()
				s.refreshes = append(s.refreshes, time.Since(t0))
				s.refreshMu.Unlock()
			}
		}
	}()
	for _, a := range arrivals {
		if d := time.Until(a.due); d > 0 {
			time.Sleep(d)
		}
		if a.refresh {
			refresh <- struct{}{}
		}
		jobs <- job{arrival: a, sent: time.Now()}
	}
	close(jobs)
	wg.Wait()
	close(refresh)
	wwg.Wait()
	return recs
}

// send issues one query on c and checks its text against the in-process
// answer at the same catalog generation.
func (s *servedRun) send(c *client, text string, due time.Time) record {
	eng := s.sys.eng
	r := record{qid: int(s.qid.Add(1)), text: text, transport: c.transport}
	r.out.due = due
	var root, rt int
	if s.rec != nil {
		s.sys.probe.reset(c.transport)
		root = s.rec.start(r.qid, 0, "query")
		rt = s.rec.start(r.qid, root, c.transport+".roundtrip")
	}
	gen := eng.CatalogGeneration()
	rows, err := c.query(text)
	r.out.done = time.Now()
	if s.rec != nil {
		s.rec.end(rt)
		s.rec.end(root)
		if call, ok := s.sys.probe.take(c.transport); ok {
			name := "serve.submit"
			if c.transport == "http" {
				name = "http.handler"
			}
			s.rec.add(r.qid, rt, name, call.start, call.end)
			r.ans = call.ans
		}
	}
	if err != nil {
		r.err, r.out.failed = err, true
		return r
	}
	if eng.CatalogGeneration() != gen {
		return r // a refresh overlapped: the served answer's generation is unknown
	}
	ref, ok := eng.CachedAnswer(context.Background(), text, 0)
	if !ok {
		if ref, err = eng.Run(context.Background(), text); err != nil {
			r.err, r.out.failed = err, true
			return r
		}
	}
	if eng.CatalogGeneration() != gen {
		return r
	}
	s.verified.Add(1)
	if !sameRows(rows, answerRows(ref)) {
		r.err, r.out.failed = fmt.Errorf("%s answer differs from the in-process answer", c.transport), true
		return r
	}
	key := fmt.Sprintf("%d\x00%s", gen, text)
	s.refMu.Lock()
	if s.refs[key] == nil {
		s.refs[key] = ref
	}
	s.refMu.Unlock()
	return r
}
