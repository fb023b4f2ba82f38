package interp

import (
	"slices"
	"strings"
	"testing"
)

// FuzzTokenLoop holds the walk of a token loop to what it replaces: for
// any bytes and every literal guardLiteral accepts — the fuzzed one and the
// first bytes of each field — nextPrefixed yields exactly the fields of
// strings.Fields with that prefix, in order.
func FuzzTokenLoop(f *testing.F) {
	for _, s := range []string{
		"", " \t\n\v\f\r", "alpha http://a.example/x beta",
		"xhttp://a http://a/http://b http:// http:/",
		"alpha\u0085http://a\u00a0http://b\u2003http://c\u3000http://d",
		"\xffhttp://e http://f\xff \xc2http://g \xe2\x80http://h \xc2\xa0http://i",
		"\u00e9 http://\u00e9/\u00fc\u2028http://j\u205fhttp://k",
	} {
		f.Add(s, "http://")
	}
	f.Add("a\u00a0a a", "a")
	f.Fuzz(func(t *testing.T, s, lit string) {
		fields := strings.Fields(s)
		lits := []string{lit}
		for _, w := range fields {
			for n := 1; n <= min(len(w), 3); n++ {
				lits = append(lits, w[:n])
			}
		}
		for _, lit := range lits {
			if !guardLiteral(lit) {
				continue
			}
			var got []string
			for i := 0; ; {
				start, end, ok := nextPrefixed(s, lit, i)
				if !ok {
					break
				}
				got = append(got, s[start:end])
				i = end
			}
			var want []string
			for _, w := range fields {
				if strings.HasPrefix(w, lit) {
					want = append(want, w)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("fields of %q with prefix %q:\n got %q\nwant %q", s, lit, got, want)
			}
		}
	})
}
