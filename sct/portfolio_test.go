package sct_test

// Error-path coverage for portfolio specification parsing: only the happy
// path was exercised before (satellite of the specification-layer PR).

import (
	"strings"
	"testing"

	"github.com/psharp-go/psharp/sct"
)

func TestParsePortfolioErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string // substring of the expected error
	}{
		{"unknown member", "random,quantum", `unknown portfolio member "quantum"`},
		{"empty spec", "", "empty portfolio member"},
		{"only whitespace", "   ", "empty portfolio member"},
		{"trailing comma", "random,", "empty portfolio member"},
		{"leading comma", ",random", "empty portfolio member"},
		{"double comma", "random,,pct", "empty portfolio member"},
		{"whitespace member", "random, ,pct", "empty portfolio member"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := sct.ParsePortfolio(tc.spec, 1, 1000)
			if err == nil {
				t.Fatalf("ParsePortfolio(%q) accepted an invalid spec (portfolio size %d)", tc.spec, p.Size())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParsePortfolio(%q) error = %q, want it to contain %q", tc.spec, err, tc.want)
			}
		})
	}
}

func TestParsePortfolioValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		size int
	}{
		{"default", 4},
		{"random,pct,delay,dfs,dpor", 5},
		{" random , pct ", 2}, // members may be padded with spaces
	}
	for _, tc := range cases {
		p, err := sct.ParsePortfolio(tc.spec, 1, 1000)
		if err != nil {
			t.Errorf("ParsePortfolio(%q): %v", tc.spec, err)
			continue
		}
		if p.Size() != tc.size {
			t.Errorf("ParsePortfolio(%q) size = %d, want %d", tc.spec, p.Size(), tc.size)
		}
	}
}

func TestNewPortfolioValidation(t *testing.T) {
	if _, err := sct.NewPortfolio(); err == nil {
		t.Error("NewPortfolio() with no members succeeded")
	}
	if _, err := sct.NewPortfolio(sct.PortfolioMember{Name: "", Strategy: sct.NewRandom(1)}); err == nil {
		t.Error("NewPortfolio accepted a nameless member")
	}
	if _, err := sct.NewPortfolio(sct.PortfolioMember{Name: "random", Strategy: nil}); err == nil {
		t.Error("NewPortfolio accepted a strategy-less member")
	}
}
