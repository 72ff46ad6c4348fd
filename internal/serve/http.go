package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// ingestBody is the POST /ingest wire shape; the endpoint accepts a single
// object or an array of them.
type ingestBody struct {
	Node  int    `json:"node"`
	Count int    `json:"count"`
	Class string `json:"slo_class"`
}

// Handler builds the HTTP front for a server:
//
//	POST /ingest      admit requests: 202, 429 (shed) + Retry-After, 503 (draining)
//	POST /tick        close the current demand window
//	GET  /placement   current configuration
//	GET  /metrics     rolling counters, per-class latency percentiles
//	GET  /ledger      full-precision ledger (the recovery-parity artifact)
//	GET  /healthz     liveness (200 while the process runs)
//	GET  /readyz      readiness (503 once draining)
//
// Every request is bounded by cfg.RequestTimeout.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		bodies, err := decodeIngest(http.MaxBytesReader(w, r.Body, maxIngestBytes))
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			httpError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", tooBig.Limit)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		// Every element is checked before the first is admitted, so a
		// batch with a bad element admits nothing and can be retried
		// whole without duplicating requests.
		reqs := make([]Request, len(bodies))
		for i, b := range bodies {
			class, err := ParseClass(b.Class)
			if err == nil {
				reqs[i], err = Request{Node: b.Node, Count: b.Count, Class: class}.normalize(s.n())
			}
			if err != nil {
				httpError(w, http.StatusBadRequest, "element %d: %v", i, err)
				return
			}
		}
		admitted := 0
		for _, req := range reqs {
			err := s.Ingest(req)
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrDraining):
				w.Header().Set("Retry-After", "10")
				writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
					"error": "draining", "admitted": admitted,
				})
				return
			default:
				var over *OverloadError
				if errors.As(err, &over) {
					w.Header().Set("Retry-After", "1")
					writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
						"error": over.Error(), "class": over.Class.String(),
						"full": over.Full, "admitted": admitted,
					})
					return
				}
				// Validated requests fail only server-side (the WAL).
				writeJSON(w, http.StatusInternalServerError, map[string]interface{}{
					"error": err.Error(), "admitted": admitted,
				})
				return
			}
		}
		writeJSON(w, http.StatusAccepted, map[string]interface{}{"admitted": admitted})
	})
	mux.HandleFunc("/tick", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := s.Tick(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"error": "draining"})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]interface{}{"tick": true})
	})
	mux.HandleFunc("/placement", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.PlacementSnapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("/ledger", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.LedgerSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	// The timeout wrapper enforces the per-request deadline; admission is
	// non-blocking, so only a stalled client body can hit it.
	return http.TimeoutHandler(mux, s.cfg.RequestTimeout, "request deadline exceeded\n")
}

// maxIngestBytes bounds a POST /ingest body; a larger one is answered 413.
const maxIngestBytes = 1 << 20

// decodeIngest decodes a POST /ingest body: one JSON object or one array of
// them, with no unknown fields and nothing but white space after it.
func decodeIngest(r io.Reader) ([]ingestBody, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data = bytes.TrimSpace(data)
	var bodies []ingestBody
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

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]interface{}{"error": fmt.Sprintf(format, args...)})
}
