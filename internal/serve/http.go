package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// ingestBody is the POST /ingest wire shape; the endpoint accepts a single
// object or an array of them.
type ingestBody struct {
	Node  int    `json:"node"`
	Count int    `json:"count"`
	Class string `json:"slo_class"`
}

// reply is every JSON answer of POST /ingest and /tick: fields in the sorted
// order of map keys, and pointers where a zero is written, not omitted.
type reply struct {
	Admitted *int   `json:"admitted,omitempty"`
	Class    string `json:"class,omitempty"`
	Error    string `json:"error,omitempty"`
	Full     *bool  `json:"full,omitempty"`
	Tick     bool   `json:"tick,omitempty"`
}

// ServeHTTP is the HTTP front of the server; only these exact paths route,
// any other is 404:
//
//	POST /ingest      admit requests: 202, 429 (shed) + Retry-After, 503 (draining)
//	POST /tick        close the current demand window
//	GET  /placement   current configuration
//	GET  /metrics     rolling counters, per-class latency percentiles
//	GET  /ledger      full-precision ledger (the recovery-parity artifact)
//	GET  /healthz     liveness (200 while the process runs)
//	GET  /readyz      readiness (503 once draining)
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/ingest", "/tick":
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
		} else if r.URL.Path == "/ingest" {
			s.serveIngest(w, r)
		} else if err := s.Tick(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, reply{Error: "draining"})
		} else {
			writeJSON(w, http.StatusAccepted, reply{Tick: true})
		}
	case "/placement":
		writeJSON(w, http.StatusOK, s.PlacementSnapshot())
	case "/metrics":
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	case "/ledger":
		writeJSON(w, http.StatusOK, s.LedgerSnapshot())
	case "/healthz":
		fmt.Fprintln(w, "ok")
	case "/readyz":
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
		} else {
			fmt.Fprintln(w, "ready")
		}
	default:
		http.NotFound(w, r)
	}
}

// HTTPServer serves s on addr. Read and write deadlines bound every request
// by cfg.RequestTimeout: a stalled body's connection is closed unanswered.
// An idle keep-alive connection is kept two minutes.
func HTTPServer(s *Server, addr string) *http.Server {
	d := s.cfg.RequestTimeout
	return &http.Server{Addr: addr, Handler: s, IdleTimeout: 2 * time.Minute,
		ReadHeaderTimeout: d, ReadTimeout: d, WriteTimeout: d}
}

func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request) {
	bodies, err := decodeIngest(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, reply{Error: fmt.Sprintf("body over %d bytes", tooBig.Limit)})
		return
	case errors.Is(err, os.ErrDeadlineExceeded):
		panic(http.ErrAbortHandler) // the read deadline cut a stalled body
	case err != nil:
		writeJSON(w, http.StatusBadRequest, reply{Error: "bad JSON: " + err.Error()})
		return
	}
	// Every element is checked before the first is admitted, so a refused
	// batch admits nothing and can be retried whole without duplicates.
	reqs := make([]Request, len(bodies))
	for i, b := range bodies {
		class, err := ParseClass(b.Class)
		if err == nil {
			reqs[i], err = Request{Node: b.Node, Count: b.Count, Class: class}.normalize(s.n())
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, reply{Error: fmt.Sprintf("element %d: %v", i, err)})
			return
		}
	}
	admitted := 0
	for ; admitted < len(reqs); admitted++ {
		if err = s.Ingest(reqs[admitted]); err != nil {
			break
		}
	}
	var over *OverloadError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, reply{Admitted: &admitted})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, reply{Admitted: &admitted, Error: "draining"})
	case errors.As(err, &over):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, reply{Admitted: &admitted, Class: over.Class.String(), Error: over.Error(), Full: &over.Full})
	default:
		// Validated requests fail only server-side (the WAL).
		writeJSON(w, http.StatusInternalServerError, reply{Admitted: &admitted, Error: err.Error()})
	}
}

// maxIngestBytes bounds a POST /ingest body; a larger one is answered 413.
const maxIngestBytes = 1 << 20

// ingestBufs recycles the buffers POST /ingest bodies are read into; one a
// huge body grew stays pooled only until the next garbage collections.
var ingestBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// decodeIngest decodes a POST /ingest body: one JSON object or one array of
// them, with no unknown fields and nothing but white space after it.
func decodeIngest(r io.Reader) (bodies []ingestBody, err error) {
	buf := ingestBufs.Get().(*bytes.Buffer)
	defer ingestBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	data := bytes.TrimSpace(buf.Bytes())
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	switch {
	case bytes.HasPrefix(data, []byte("[")):
		err = dec.Decode(&bodies)
	case bytes.HasPrefix(data, []byte("{")):
		bodies = make([]ingestBody, 1)
		err = dec.Decode(&bodies[0])
	default:
		err = fmt.Errorf("want an object or array")
	}
	if err == nil && dec.InputOffset() != int64(len(data)) {
		err = fmt.Errorf("trailing data after the JSON value")
	}
	return bodies, err
}

// jsonContentType goes into the header map as is, skipping Set's work.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
