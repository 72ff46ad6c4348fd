package runner

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want *Fault
	}{
		{"", nil},
		{"exit:2", &Fault{Kind: "exit", After: 2}},
		{"wedge:1", &Fault{Kind: "wedge", After: 1}},
		{"wedge:1:500ms", &Fault{Kind: "wedge", After: 1, Delay: 500 * time.Millisecond}},
		{"slow:0:50ms", &Fault{Kind: "slow", After: 0, Delay: 50 * time.Millisecond}},
		{"garbage:4", &Fault{Kind: "garbage", After: 4}},
		{"disconnect:1", &Fault{Kind: "disconnect", After: 1}},
	}
	for _, c := range cases {
		got, err := ParseFault(c.in)
		if err != nil {
			t.Errorf("ParseFault(%q): %v", c.in, err)
			continue
		}
		if (got == nil) != (c.want == nil) {
			t.Errorf("ParseFault(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		if got != nil && (got.Kind != c.want.Kind || got.After != c.want.After || got.Delay != c.want.Delay) {
			t.Errorf("ParseFault(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The String form must parse back to the same fault.
		if got != nil {
			back, err := ParseFault(got.String())
			if err != nil || back.Kind != got.Kind || back.After != got.After || back.Delay != got.Delay {
				t.Errorf("ParseFault(%q).String() = %q did not round-trip (%+v, %v)", c.in, got.String(), back, err)
			}
		}
	}
}

func TestParseFaultRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"0",               // a bare count is not a fault
		"3",               // nor is a bare positive one
		"-2",              // nor a negative one
		"exit",            // missing count
		"exit:x",          // non-integer count
		"exit:-1",         // negative count
		"bogus:1",         // unknown kind
		"wedge:1:huh",     // unparseable delay
		"wedge:1:-5s",     // negative delay
		"exit:1:1s:huh",   // too many fields
		"exit:3:5s",       // exit takes no delay
		"garbage:2:1s",    // neither does garbage
		"disconnect:2:1s", // nor disconnect
	} {
		if f, err := ParseFault(in); err == nil {
			t.Errorf("ParseFault(%q) = %+v, want error", in, f)
		}
	}
}

// FuzzParseFault feeds arbitrary -faultinject values to both fault parsers,
// the figure runner's and the placement service's. Each must return an
// error or a well-formed fault, never panic, and report "no fault" only for
// its blank spellings; a runner fault must survive its String form.
func FuzzParseFault(f *testing.F) {
	for _, s := range []string{"", "0", "3", "exit:2", "wedge:1:500ms", "slow:0:50ms", "garbage:4",
		"disconnect:1", "exit:3:5s", "bogus:1", "slow:2:1h2m3.5s", "none", "flood:1:4", "ckptfail:2", "kill", "slow::"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		blank := strings.TrimSpace(in)
		fault, err := ParseFault(in)
		switch {
		case err != nil:
		case fault == nil:
			if blank != "" {
				t.Fatalf("ParseFault(%q) = no fault, no error", in)
			}
		default:
			if !slices.Contains(FaultKinds, fault.Kind) || fault.After < 0 || fault.Delay < 0 {
				t.Fatalf("ParseFault(%q) = malformed %+v", in, fault)
			}
			back, err := ParseFault(fault.String())
			if err != nil || back == nil || *back != *fault {
				t.Fatalf("ParseFault(%q) = %+v, but its String %q parses to %+v, %v", in, fault, fault.String(), back, err)
			}
		}
		sf, err := serve.ParseFault(in)
		switch {
		case err != nil:
		case sf.Kind == serve.FaultNone:
			if blank != "" && blank != "none" {
				t.Fatalf("serve.ParseFault(%q) = no fault, no error", in)
			}
		case sf.Kind < serve.FaultNone || sf.Kind > serve.FaultKill || sf.After < 0 || sf.Delay < 0 || sf.Factor < 2:
			t.Fatalf("serve.ParseFault(%q) = malformed %+v", in, sf)
		}
	})
}
