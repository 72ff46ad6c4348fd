package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// newHTTPServer builds an ephemeral (no state dir) server and its test
// front. start=false leaves the consumer off, so the queue fills
// deterministically for admission-control tests.
func newHTTPServer(t *testing.T, queueCap int, shed float64, start bool) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		NewStream:    testFactory(t),
		Fingerprint:  "http-test",
		Window:       1 << 20,
		QueueCap:     queueCap,
		ShedFraction: shed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		s.Start()
	}
	ts := startHTTP(t, s)
	t.Cleanup(s.queue.Close)
	return s, ts
}

// startHTTP serves s on a loopback listener through the real HTTPServer,
// closed when the test ends.
func startHTTP(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = HTTPServer(s, "")
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if len(data) > 0 && json.Unmarshal(data, &m) != nil {
		m = map[string]interface{}{"raw": string(data)}
	}
	return resp, m
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPIngestTickAndViews(t *testing.T) {
	s, ts := newHTTPServer(t, 0, 0, true)

	resp, body := post(t, ts.URL+"/ingest", `{"node": 3, "count": 2, "slo_class": "critical"}`)
	if resp.StatusCode != http.StatusAccepted || body["admitted"] != float64(1) {
		t.Fatalf("single ingest: %d %v", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/ingest",
		`[{"node": 1}, {"node": 2, "slo_class": "batch"}, {"node": 4, "count": 3}]`)
	if resp.StatusCode != http.StatusAccepted || body["admitted"] != float64(3) {
		t.Fatalf("array ingest: %d %v", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/tick", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	waitCursor(t, s, 5) // 4 arrivals + 1 tick

	var pv PlacementView
	getJSON(t, ts.URL+"/placement", &pv)
	if pv.Round != 1 || pv.Active == 0 || len(pv.Placement) != pv.Active {
		t.Fatalf("placement view: %+v", pv)
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Rounds != 1 || snap.Ticks != 1 {
		t.Fatalf("metrics: rounds %d ticks %d", snap.Rounds, snap.Ticks)
	}
	if snap.Classes["critical"].Served != 2 || snap.Classes["standard"].Served != 4 || snap.Classes["batch"].Served != 1 {
		t.Fatalf("per-class served: %+v", snap.Classes)
	}
	var led LedgerDump
	getJSON(t, ts.URL+"/ledger", &led)
	if led.Rounds != 1 || led.Cursor != 5 || led.Total <= 0 {
		t.Fatalf("ledger: %+v", led)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s, ts := newHTTPServer(t, 0, 0, false)
	cases := []string{
		`{"node": 3, "slo_class": "gold"}`, // unknown class
		`{"node": 999}`,                    // out of range
		`{"node": -1}`,                     // negative node
		`{"node": 1, "bogus": true}`,       // unknown field
		`"just a string"`,                  // not an object
		`{"node": `,                        // truncated
		`{"node": 1}{"node": 2}`,           // two values
		`[{"node": 1}] garbage`,            // trailing data
		`{"node": 1}}`,                     // trailing bracket
	}
	for _, c := range cases {
		if resp, body := post(t, ts.URL+"/ingest", c); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: got %d %v", c, resp.StatusCode, body)
		}
	}
	huge := strings.Repeat(" ", maxIngestBytes) + `{"node": 1}`
	if resp, body := post(t, ts.URL+"/ingest", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over %d bytes: got %d %v", maxIngestBytes, resp.StatusCode, body)
	}
	if d := s.queue.Depth(); d != 0 {
		t.Fatalf("rejected bodies queued %d requests", d)
	}
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}
}

// TestHTTPIngestAllOrNothing: a batch with one invalid element is refused
// whole — nothing queued, nothing WAL-logged — so a client can retry the
// corrected batch without duplicating the valid elements.
func TestHTTPIngestAllOrNothing(t *testing.T) {
	s, err := New(recoveryConfig(t, t.TempDir(), Fault{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.wal.Close() })
	t.Cleanup(s.queue.Close)
	ts := startHTTP(t, s)
	for _, bad := range []string{
		`[{"node": 1}, {"node": 2, "count": 3}, {"node": 999}]`,
		`[{"node": 1}, {"node": 2, "slo_class": "gold"}]`,
		`[{"node": 1}, {"node": 2, "count": -1}]`,
	} {
		resp, body := post(t, ts.URL+"/ingest", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: got %d %v", bad, resp.StatusCode, body)
		}
		if d, n := s.queue.Depth(), s.wal.Count(); d != 0 || n != 0 {
			t.Fatalf("body %s: refused batch left %d queued and %d WAL entries", bad, d, n)
		}
	}
	resp, body := post(t, ts.URL+"/ingest", `[{"node": 1}, {"node": 2, "count": 3}]`)
	if resp.StatusCode != http.StatusAccepted || body["admitted"] != 2.0 {
		t.Fatalf("valid batch: got %d %v", resp.StatusCode, body)
	}
	if d, n := s.queue.Depth(), s.wal.Count(); d != 2 || n != 2 {
		t.Fatalf("valid batch: %d queued and %d WAL entries, want 2 and 2", d, n)
	}
}

// FuzzIngestBody feeds arbitrary bytes to the POST /ingest decoder: it
// must never panic, and a body it accepts must re-marshal to JSON that
// decodes to the same values.
func FuzzIngestBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies, err := decodeIngest(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := json.Marshal(bodies)
		if err != nil {
			t.Fatalf("accepted %q, re-marshal: %v", data, err)
		}
		back, err := decodeIngest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("accepted %q, refused its re-marshal %s: %v", data, again, err)
		}
		if !slices.Equal(back, bodies) {
			t.Fatalf("%q decodes to %+v, its re-marshal %s to %+v", data, bodies, again, back)
		}
	})
}

// TestHTTPOverloadShedsNonCriticalOnly is the admission-control SLO check:
// past the shed threshold, standard/batch traffic gets 429 while critical
// requests keep being admitted, and once served their p99 sojourn stays
// bounded — load-shedding protected the critical class.
func TestHTTPOverloadShedsNonCriticalOnly(t *testing.T) {
	s, ts := newHTTPServer(t, 8, 0.5, false) // shed threshold at 4 queued
	for i := 0; i < 4; i++ {
		if resp, body := post(t, ts.URL+"/ingest", `{"node": 1, "slo_class": "standard"}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("standard %d refused under light load: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts.URL+"/ingest", `{"node": 1, "slo_class": "standard"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("standard over threshold: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatal("429 without Retry-After")
	}
	if body["class"] != "standard" || body["full"] != false {
		t.Fatalf("429 body: %v", body)
	}
	if resp, _ := post(t, ts.URL+"/ingest", `{"node": 2, "slo_class": "batch"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch over threshold: %d", resp.StatusCode)
	}
	// Critical rides through the shed threshold.
	for i := 0; i < 3; i++ {
		if resp, body := post(t, ts.URL+"/ingest", `{"node": 3, "slo_class": "critical"}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("critical shed below hard-full: %d %v", resp.StatusCode, body)
		}
	}

	// Serve the backlog and check the overload left critical unharmed.
	s.Start()
	if resp, _ := post(t, ts.URL+"/tick", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatal("tick refused")
	}
	waitCursor(t, s, 8) // 7 admitted arrivals + 1 tick

	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Classes["standard"].Shed == 0 || snap.Classes["batch"].Shed == 0 {
		t.Fatalf("no non-critical sheds recorded: %+v", snap.Classes)
	}
	if snap.Classes["critical"].Shed != 0 {
		t.Fatalf("critical was shed %d times below hard-full", snap.Classes["critical"].Shed)
	}
	if snap.Classes["critical"].Served != 3 {
		t.Fatalf("critical served %d of 3", snap.Classes["critical"].Served)
	}
	p99 := snap.Classes["critical"].P99Millis
	if p99 <= 0 || p99 > 30_000 {
		t.Fatalf("critical p99 out of bounds: %v ms", p99)
	}
}

func TestHTTPDrainSemantics(t *testing.T) {
	s, ts := newHTTPServer(t, 0, 0, true)
	if err := s.Ingest(Request{Node: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	resp, body := post(t, ts.URL+"/ingest", `{"node": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || body["error"] != "draining" {
		t.Fatalf("ingest while draining: %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "10" {
		t.Fatal("draining 503 without Retry-After")
	}
	if resp, _ := post(t, ts.URL+"/tick", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tick while draining: %d", resp.StatusCode)
	}
	// The drained ledger stays readable — operators diff it post-mortem.
	var led LedgerDump
	getJSON(t, ts.URL+"/ledger", &led)
	if led.Cursor != 1 {
		t.Fatalf("drained ledger cursor %d", led.Cursor)
	}
}

// TestHTTPLedgerMatchesReplayBytes pins the wire contract the CI smoke
// test diffs on: the GET /ledger body of a drained server is byte-identical
// to what flexserve -replay prints (json.Encoder over the same LedgerDump
// of the state directory's recovery).
func TestHTTPLedgerMatchesReplayBytes(t *testing.T) {
	cfg := recoveryConfig(t, t.TempDir(), Fault{})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := startHTTP(t, s)
	feedPhase(t, s, 5, 0)
	waitCursor(t, s, s.wal.Count())
	s.Drain()

	resp, err := http.Get(ts.URL + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	if err := json.NewEncoder(&replayed).Encode(DumpLedger(engine)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, replayed.Bytes()) {
		t.Fatalf("/ledger and replay diverge:\n  served   %s\n  replayed %s", served, replayed.Bytes())
	}
}

// TestHTTPRequestDeadline runs the real HTTPServer under a 50 ms request
// timeout. A client that sends its headers and half a body, then stalls,
// has its connection closed unanswered within the deadline, and nothing is
// admitted or WAL-logged; an idle keep-alive connection outlives the
// deadline several times over.
func TestHTTPRequestDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	cfg := recoveryConfig(t, t.TempDir(), Fault{})
	cfg.RequestTimeout = timeout
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.wal.Close() })
	t.Cleanup(s.queue.Close)
	addr := startHTTP(t, s).Listener.Addr().String()
	const body = `{"node": 1, "count": 2}`
	// request sends a POST /ingest of body, stopping after its first sent bytes.
	request := func(w io.Writer, sent int) {
		fmt.Fprintf(w, "POST /ingest HTTP/1.1\r\nHost: flexserve\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:sent])
	}

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	// The headers trickle in over half the deadline, so a 400 written when
	// the body read times out would still be inside the write deadline
	// (counted from the end of the headers) and reach the client.
	request(&slowWriter{stalled, timeout / 2}, len(body)/2)
	stalled.SetReadDeadline(start.Add(5 * time.Second))
	got, err := io.ReadAll(stalled)
	if elapsed := time.Since(start); len(got) != 0 || elapsed > timeout+time.Second {
		t.Fatalf("stalled body: read %q (%v) after %v; want the connection closed unanswered within %v",
			got, err, elapsed, timeout)
	}
	if d, n := s.queue.Depth(), s.wal.Count(); d != 0 || n != 0 {
		t.Fatalf("stalled body left %d queued and %d WAL entries", d, n)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	br := bufio.NewReader(idle)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(8 * timeout)
		}
		request(idle, len(body))
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on one keep-alive connection: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d on one keep-alive connection: %d", i, resp.StatusCode)
		}
	}
	if n := s.wal.Count(); n != 2 {
		t.Fatalf("keep-alive requests logged %d WAL entries, want 2", n)
	}
}

// TestHTTPWireBytes pins every POST /ingest and /tick answer byte for
// byte: status, Content-Type, Retry-After and body. The literals are what
// the handler wrote through http.ServeMux, map replies and
// http.TimeoutHandler, before those were replaced.
func TestHTTPWireBytes(t *testing.T) {
	fill := func(n int, class Class) func(*testing.T, *Server) {
		return func(t *testing.T, s *Server) {
			for i := 0; i < n; i++ {
				if err := s.Ingest(Request{Node: 1, Count: 1, Class: class}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drain := func(_ *testing.T, s *Server) { s.Start(); s.Drain() }
	breakWAL := func(_ *testing.T, s *Server) { s.wal.active.w = bufio.NewWriter(failWriter{}) }
	const (
		jsonType = "application/json"
		textType = "text/plain; charset=utf-8"
	)
	cases := []struct {
		name, method, path, body string
		prep                     func(*testing.T, *Server) // state before the request; server has 8 slots, shed at 4
		status                   int
		contentType, retryAfter  string
		want                     string
	}{
		{"ingest 202", "POST", "/ingest", `{"node": 1}`, nil,
			202, jsonType, "", "{\"admitted\":1}\n"},
		{"ingest batch 202", "POST", "/ingest", `[{"node": 1}, {"node": 2, "count": 3, "slo_class": "batch"}]`, nil,
			202, jsonType, "", "{\"admitted\":2}\n"},
		{"ingest 400 bad JSON", "POST", "/ingest", `{"node": `, nil,
			400, jsonType, "", "{\"error\":\"bad JSON: unexpected EOF\"}\n"},
		{"ingest 400 unknown field", "POST", "/ingest", `{"node": 1, "bogus": true}`, nil,
			400, jsonType, "", "{\"error\":\"bad JSON: json: unknown field \\\"bogus\\\"\"}\n"},
		{"ingest 400 not an object", "POST", "/ingest", `"just a string"`, nil,
			400, jsonType, "", "{\"error\":\"bad JSON: want an object or array\"}\n"},
		{"ingest 400 bad element", "POST", "/ingest", `[{"node": 1}, {"node": 999}]`, nil,
			400, jsonType, "", "{\"error\":\"element 1: serve: access point 999 outside network of 24 nodes\"}\n"},
		{"ingest 400 bad class", "POST", "/ingest", `{"node": 1, "slo_class": "gold"}`, nil,
			400, jsonType, "", "{\"error\":\"element 0: serve: unknown slo_class \\\"gold\\\" (want critical, standard, or batch)\"}\n"},
		{"ingest 400 escaped", "POST", "/ingest", `{"node": <1>}`, nil,
			400, jsonType, "", "{\"error\":\"bad JSON: invalid character '\\u003c' looking for beginning of value\"}\n"},
		{"ingest 400 trailing data", "POST", "/ingest", `{"node": 1} x`, nil,
			400, jsonType, "", "{\"error\":\"bad JSON: trailing data after the JSON value\"}\n"},
		{"ingest 413", "POST", "/ingest", strings.Repeat(" ", maxIngestBytes) + `{"node": 1}`, nil,
			413, jsonType, "", "{\"error\":\"body over 1048576 bytes\"}\n"},
		{"ingest 429 shed", "POST", "/ingest", `{"node": 1, "slo_class": "standard"}`, fill(4, Standard),
			429, jsonType, "1", "{\"admitted\":0,\"class\":\"standard\",\"error\":\"serve: over shed threshold, non-critical standard request shed\",\"full\":false}\n"},
		{"ingest 429 shed mid-batch", "POST", "/ingest", `[{"node": 1, "slo_class": "batch"}, {"node": 2, "slo_class": "batch"}]`, fill(3, Standard),
			429, jsonType, "1", "{\"admitted\":1,\"class\":\"batch\",\"error\":\"serve: over shed threshold, non-critical batch request shed\",\"full\":false}\n"},
		{"ingest 429 full", "POST", "/ingest", `{"node": 1, "slo_class": "critical"}`, fill(8, Critical),
			429, jsonType, "1", "{\"admitted\":0,\"class\":\"critical\",\"error\":\"serve: ingest queue full, critical request shed\",\"full\":true}\n"},
		{"ingest 500", "POST", "/ingest", `{"node": 1}`, breakWAL,
			500, jsonType, "", "{\"admitted\":0,\"error\":\"wal: disk full\"}\n"},
		{"ingest 503", "POST", "/ingest", `{"node": 1}`, drain,
			503, jsonType, "10", "{\"admitted\":0,\"error\":\"draining\"}\n"},
		{"ingest 405", "GET", "/ingest", ``, nil,
			405, textType, "", "POST only\n"},
		{"tick 202", "POST", "/tick", ``, nil,
			202, jsonType, "", "{\"tick\":true}\n"},
		{"tick 503", "POST", "/tick", ``, drain,
			503, jsonType, "", "{\"error\":\"draining\"}\n"},
		{"tick 405", "GET", "/tick", ``, nil,
			405, textType, "", "POST only\n"},
		{"unknown 404", "GET", "/nope", ``, nil,
			404, textType, "", "404 page not found\n"},
		{"prefix 404", "POST", "/ingest/", `{"node": 1}`, nil,
			404, textType, "", "404 page not found\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{
				NewStream:    testFactory(t),
				Fingerprint:  "wire-test",
				Window:       1 << 20,
				QueueCap:     8,
				ShedFraction: 0.5,
				Dir:          t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if !s.Draining() { // a drain closes the WAL itself
					s.wal.Close()
				}
			})
			t.Cleanup(s.queue.Close)
			if c.prep != nil {
				c.prep(t, s)
			}
			req, err := http.NewRequest(c.method, startHTTP(t, s).URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != c.contentType ||
				resp.Header.Get("Retry-After") != c.retryAfter || string(body) != c.want {
				t.Fatalf("got %d %q Retry-After %q %q\nwant %d %q Retry-After %q %q",
					resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), body,
					c.status, c.contentType, c.retryAfter, c.want)
			}
		})
	}
}

// slowWriter sends the first line of its first write, pauses, then the rest.
type slowWriter struct {
	net.Conn
	pause time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if i := bytes.IndexByte(p, '\n'); w.pause > 0 && i >= 0 {
		if _, err := w.Conn.Write(p[:i+1]); err != nil {
			return 0, err
		}
		time.Sleep(w.pause)
		w.pause = 0
		n, err := w.Conn.Write(p[i+1:])
		return i + 1 + n, err
	}
	return w.Conn.Write(p)
}

// failWriter stands in for a full disk under the WAL.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("wal: disk full") }

// TestMetricsSnapshotDeterministic pins the /metrics encoding contract:
// marshaling the same Snapshot twice yields identical bytes. The only
// map in the shape (Classes) relies on encoding/json's sorted-key
// guarantee, so scrapers and the parity harness may diff raw bodies.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	s, ts := newHTTPServer(t, 0, 0, true)

	if resp, body := post(t, ts.URL+"/ingest",
		`[{"node": 1, "slo_class": "critical"}, {"node": 2, "count": 4}, {"node": 3, "slo_class": "batch"}]`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %v", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/tick", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	waitCursor(t, s, 4) // 3 arrivals + 1 tick

	snap := s.MetricsSnapshot()
	first, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two marshals of one Snapshot diverge:\n  %s\n  %s", first, second)
	}
	if len(snap.Classes) != 3 {
		t.Fatalf("expected all %d classes in the snapshot, got %v", 3, snap.Classes)
	}
}
