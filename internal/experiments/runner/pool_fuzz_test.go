package runner

import (
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// protocolScript is the fuzzed first worker connection: script line k
// answers the connection's k-th cell assignment, '|' splits it into the
// worker lines sent for it, in order. "ok" is the cell's correct response,
// "hb" a heartbeat and "eof" ends the worker's stream; anything else is
// sent verbatim, so wrong indices, cell errors, garbage and torn JSON all
// reach the coordinator. Once the script runs out the worker answers
// correctly. The one thing it never does is lie: a verbatim line that
// decodes to Width values for a cell in the grid carries that cell's true
// values, since no framing check can catch a worker that computes wrong
// numbers. A line of another width reaches the coordinator as sent.
func protocolScript(s *Spec, script []string) *fakeConn {
	c := newFakeConn()
	correct := func(idx int) string {
		msg, err := serveCell(s, strconv.Itoa(idx))
		if err != nil {
			panic(err)
		}
		b, _ := json.Marshal(msg)
		return string(b)
	}
	go func() {
		for k := 0; ; k++ {
			var line string
			for line == "" || strings.HasPrefix(line, "SPEC ") {
				select {
				case line = <-c.in:
				case <-c.closed:
					return
				}
			}
			idx, err := strconv.Atoi(line)
			if err != nil {
				return
			}
			reply := []string{"ok"}
			if k < len(script) {
				reply = strings.Split(script[k], "|")
			}
			for _, tok := range reply {
				out := tok
				switch tok {
				case "ok":
					out = correct(idx)
				case "hb":
					out = heartbeatLine
				case "eof":
					c.closeOut()
					return
				default:
					var msg cellMsg
					if json.Unmarshal([]byte(strings.TrimSpace(tok)), &msg) == nil && !msg.Hb &&
						msg.Err == "" && len(msg.Values) == s.Width && msg.Idx >= 0 && msg.Idx < s.Cells() {
						out = correct(msg.Idx)
					}
				}
				select {
				case c.out <- out:
				case <-c.closed:
					return
				}
			}
		}
	}()
	return c
}

// cellNamed matches the coordinator's failure message for one cell.
var cellNamed = regexp.MustCompile(`spec frac cell \d+ failed after \d+ attempts`)

// FuzzPoolProtocol drives the coordinator half of the line protocol: a
// one-slot pool whose first worker connection speaks a fuzzed script
// (protocolScript), every later one healthily. The run must either
// produce a grid bit-identical to Local or fail with an error naming a
// cell; it must never panic, outlive a few response deadlines, or leave a
// goroutine behind once the pool is closed.
func FuzzPoolProtocol(f *testing.F) {
	f.Add("ok\nok\nhb|ok")
	f.Add(`{"i":0,"v":[1]}`)
	s := fuzzSpecs["frac"]
	want, err := Local{}.Run(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, script string) {
		if len(script) > 4096 {
			return
		}
		base := runtime.NumGoroutine()
		tr := &fakeTransport{n: 1, spec: s, queue: []func() *fakeConn{func() *fakeConn {
			return protocolScript(s, strings.Split(script, "\n"))
		}}}
		cfg := fastCfg()
		cfg.Deadline = 50 * time.Millisecond
		cfg.sleep = func(time.Duration, <-chan struct{}) {}
		pool := NewPool(tr, cfg)
		type result struct {
			g   *Grid
			err error
		}
		res := make(chan result, 1)
		go func() {
			g, err := pool.Run(s)
			res <- result{g, err}
		}()
		var r result
		select {
		case r = <-res:
		case <-time.After(30 * time.Second):
			t.Fatalf("run still going after 30s (deadline 50ms)")
		}
		pool.Close()
		switch {
		case r.err != nil:
			if !cellNamed.MatchString(r.err.Error()) {
				t.Fatalf("run failed without naming a cell: %v", r.err)
			}
		default:
			for idx := 0; idx < s.Cells(); idx++ {
				xi, vi, run := s.Coords(idx)
				got, exp := r.g.Cell(xi, vi, run), want.Cell(xi, vi, run)
				if len(got) != len(exp) {
					t.Fatalf("cell %d = %v, want %v", idx, got, exp)
				}
				for j := range exp {
					if math.Float64bits(got[j]) != math.Float64bits(exp[j]) {
						t.Fatalf("cell %d value %d = %v, want %v bit for bit", idx, j, got[j], exp[j])
					}
				}
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d after Close:\n%s",
					base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}
