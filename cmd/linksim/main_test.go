package main

import (
	"flag"
	"testing"
)

// Each mode refuses the flags it would ignore.
func TestModeRefusesIgnoredFlags(t *testing.T) {
	const sweep, config = "does not apply to -sweep", "does not apply to -config"
	for _, tc := range []struct {
		args []string
		err  string // "" = accepted
	}{
		{[]string{}, ""},
		{[]string{"-length", "30", "-offset", "10e-6", "-channels", "400", "-chanrate", "1e9", "-spares", "16", "-fec", "kp4", "-run", "-eye", "-frames", "10", "-par", "1", "-seed", "3"}, ""},
		{[]string{"-sweep", "-length", "30", "-channels", "400", "-spares", "16", "-mac", "-arq", "sr", "-vc", "3"}, ""},
		{[]string{"-sweep", "-run"}, "-run " + sweep},
		{[]string{"-sweep", "-eye"}, "-eye " + sweep},
		{[]string{"-sweep", "-run", "-eye"}, "-eye " + sweep},
		{[]string{"-sweep=false", "-run", "-eye"}, ""},
		{[]string{"-config", "d.json", "-run", "-eye", "-frames", "10", "-par", "1", "-seed", "3", "-mac"}, ""},
		{[]string{"-config", "d.json", "-sweep", "-seed", "3"}, ""},
		{[]string{"-config", "d.json", "-length", "30"}, "-length " + config},
		{[]string{"-config", "d.json", "-offset", "1e-6"}, "-offset " + config},
		{[]string{"-config", "d.json", "-channels", "400"}, "-channels " + config},
		{[]string{"-config", "d.json", "-chanrate", "1e9"}, "-chanrate " + config},
		{[]string{"-config", "d.json", "-spares", "2"}, "-spares " + config},
		{[]string{"-config", "d.json", "-fec", "none"}, "-fec " + config},
		{[]string{"-config", "", "-length", "30"}, ""},
		{[]string{"-fec", "bogus"}, `phy: unknown FEC "bogus" (want none|hamming72|rslite|kp4)`},
	} {
		fs := flag.NewFlagSet("linksim", flag.ContinueOnError)
		c := addFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := c.resolve(fs); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("%v: error %q, want %q", tc.args, got, tc.err)
		}
	}
}
