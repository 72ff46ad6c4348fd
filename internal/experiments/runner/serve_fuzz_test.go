package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fuzzSpecs is the fixed registry FuzzServePool's worker serves: two
// coordinate-encoding grids, one whose xi == 1 cells always fail, and one
// whose values are non-terminating binary fractions, negative zero and
// subnormals, so a lossy float round trip through the JSON response would
// show.
var fuzzSpecs = func() map[string]*Spec {
	reg := map[string]*Spec{}
	for _, name := range []string{"grid-2x2x2", "grid-3x1x2", "failcell-3x1x1"} {
		s, err := buildTestSpec(name, "")
		if err != nil {
			panic(err)
		}
		reg[name] = s
	}
	reg["frac"] = &Spec{
		Name: "frac", Options: "seed=3 metric=dense", Xs: 3, Variants: 2, Runs: 2, Width: 4,
		Cell: func(xi, vi, run int) ([]float64, error) {
			k := float64(xi*4 + vi*2 + run + 1)
			return []float64{k / 3, -math.Pi * k, math.Copysign(0, -1), k * math.SmallestNonzeroFloat64}, nil
		},
		Reduce: func(*Grid) (*trace.Table, error) { return nil, nil },
	}
	return reg
}()

// buildFuzzSpec ignores the requested options, as a worker with options of
// its own would: the session must refuse a spec whose Options differ.
func buildFuzzSpec(name, _ string) (*Spec, error) {
	if s, ok := fuzzSpecs[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown spec %q", name)
}

// assignment is one cell a session is expected to answer.
type assignment struct {
	spec *Spec
	idx  int
}

// expectSession is the sequential reference for one worker session over
// input: the cells it must answer, in order, and how the session ends
// (clean EOF, BYE, or a protocol error at the first line it must refuse,
// which refused reports; a line too long to scan sets none of the three).
func expectSession(input []byte) (want []assignment, bye, clean, refused bool) {
	var cur *Spec
	sc := bufio.NewScanner(bytes.NewReader(input))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "BYE":
			return want, true, false, false
		case strings.HasPrefix(line, "SPEC "):
			name, options, _ := strings.Cut(strings.TrimSpace(line[len("SPEC "):]), " ")
			s, err := buildFuzzSpec(name, "")
			if err != nil || s.Options != strings.TrimSpace(options) {
				return want, false, false, true
			}
			cur = s
		default:
			idx, err := strconv.Atoi(line)
			if cur == nil || err != nil || idx < 0 || idx >= cur.Cells() {
				return want, false, false, true
			}
			want = append(want, assignment{cur, idx})
		}
	}
	return want, false, sc.Err() == nil, false
}

// FuzzServePool feeds arbitrary coordinator lines — SPEC switches, cell
// indices, BYE, blanks and junk — to the worker loop over a fixed spec
// registry. The loop must never panic; it must end with nil on a clean
// EOF, ErrBye on BYE and another error otherwise; and every line it writes
// must be a cellMsg answering the next expected assignment, with the
// cell's values bit for bit or the cell's own error, except that a refused
// line is answered by one last line carrying only the Fatal reason.
func FuzzServePool(f *testing.F) {
	f.Add([]byte("SPEC grid-2x2x2\n0\n+3\n7\n"))
	f.Add([]byte("SPEC frac  seed=3 metric=dense \n1\nSPEC frac seed=3\n2\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		var out bytes.Buffer
		err := ServePool(buildFuzzSpec, bytes.NewReader(input), &out, ServeOptions{})
		want, bye, clean, refused := expectSession(input)
		switch {
		case bye && !errors.Is(err, ErrBye):
			t.Fatalf("session ending in BYE returned %v", err)
		case clean && err != nil:
			t.Fatalf("clean session returned %v", err)
		case !bye && !clean && (err == nil || errors.Is(err, ErrBye)):
			t.Fatalf("session with a refused line returned %v", err)
		}
		text := out.String()
		if text != "" && !strings.HasSuffix(text, "\n") {
			t.Fatalf("output does not end in a newline: %q", text)
		}
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		if text == "" {
			lines = nil
		}
		if refused {
			var msg cellMsg
			if len(lines) == 0 || json.Unmarshal([]byte(lines[len(lines)-1]), &msg) != nil ||
				msg.Fatal != err.Error() || msg.Idx != 0 || msg.Values != nil || msg.Err != "" || msg.Hb {
				t.Fatalf("refused session (%v) did not end in its Fatal line:\n%s", err, text)
			}
			lines = lines[:len(lines)-1]
		}
		if len(lines) != len(want) {
			t.Fatalf("worker answered %d cells, %d were assigned:\n%s", len(lines), len(want), text)
		}
		for k, line := range lines {
			var msg cellMsg
			if err := json.Unmarshal([]byte(line), &msg); err != nil {
				t.Fatalf("response %d %q: %v", k, line, err)
			}
			a := want[k]
			if msg.Idx != a.idx || msg.Hb || msg.Nanos < 0 {
				t.Fatalf("response %d = %+v, want cell %d of %s", k, msg, a.idx, a.spec.Name)
			}
			v, cerr := a.spec.Cell(a.spec.Coords(a.idx))
			if cerr != nil {
				if msg.Err != cerr.Error() || msg.Values != nil {
					t.Fatalf("response %d = %+v, want the cell error %q", k, msg, cerr)
				}
				continue
			}
			if msg.Err != "" || len(msg.Values) != len(v) {
				t.Fatalf("response %d = %+v, want values %v", k, msg, v)
			}
			for j := range v {
				if math.Float64bits(msg.Values[j]) != math.Float64bits(v[j]) {
					t.Fatalf("response %d value %d = %v, want %v bit for bit", k, j, msg.Values[j], v[j])
				}
			}
		}
	})
}
