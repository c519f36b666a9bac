package linkflags

import (
	"flag"
	"reflect"
	"testing"
)

// One declaration serves linksim and linksoak, so its names and defaults
// are both CLIs' interface: pin them. linksoak's whole flag set is pinned
// beside it, in cmd/linksoak.
func TestFlagNamesAndDefaults(t *testing.T) {
	fs := flag.NewFlagSet("linksim", flag.ContinueOnError)
	AddLink(fs)
	AddMAC(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{"spares": "4", "fec": "rslite", "seed": "1", "mac": "false", "arq": "gbn", "vc": "1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Link+MAC flags = %v, want %v", got, want)
	}
}
