package journal

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"manimal/internal/serde"
)

// FuzzConfCodec: every datum survives EncodeConf, the JSON the journal
// stores and DecodeConf as an Equal datum of the same kind under the same
// key (a NaN as a NaN, which Equal never matches). A datum of no kind, and
// a key or string that is not valid UTF-8, is refused.
func FuzzConfCodec(f *testing.F) {
	f.Add("k", uint8(0), int64(math.MinInt64), 0.0, "")
	f.Add("k", uint8(0), int64(math.MaxInt64), 0.0, "")
	f.Add("k", uint8(1), int64(0), math.NaN(), "")
	f.Add("k", uint8(1), int64(0), math.Inf(1), "")
	f.Add("k", uint8(1), int64(0), math.Inf(-1), "")
	f.Add("k", uint8(1), int64(0), math.Copysign(0, -1), "")
	f.Add("k", uint8(1), int64(0), 0.1, "")
	f.Add("k", uint8(2), int64(0), 0.0, "0xbeef")
	f.Add("k", uint8(2), int64(0), 0.0, "beef")
	f.Add("k", uint8(2), int64(0), 0.0, "\xff")
	f.Add("k", uint8(3), int64(0), 0.0, "")
	f.Add("k", uint8(3), int64(0), 0.0, "\x00\xbe\xef")
	f.Add("k", uint8(4), int64(1), 0.0, "")
	f.Add("k", uint8(5), int64(0), 0.0, "")
	f.Add("\xff", uint8(0), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, key string, kind uint8, i int64, x float64, s string) {
		var d serde.Datum
		switch kind % 6 {
		case 0:
			d = serde.Int(i)
		case 1:
			d = serde.Float(x)
		case 2:
			d = serde.String(s)
		case 3:
			d = serde.Bytes([]byte(s))
		case 4:
			d = serde.Bool(i&1 == 1)
		}
		enc, err := EncodeConf(map[string]serde.Datum{key: d})
		if d.Kind == serde.KindInvalid || !utf8.ValidString(key) || d.Kind == serde.KindString && !utf8.ValidString(s) {
			if err == nil {
				t.Fatalf("conf %q = %q (kind %v) was encoded", key, s, d.Kind)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]ConfValue
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		conf := DecodeConf(back)
		got, ok := conf[key]
		if len(conf) != 1 || !ok {
			t.Fatalf("decoded conf %v, want one entry under %q", conf, key)
		}
		nan := d.Kind == serde.KindFloat64 && math.IsNaN(d.Float())
		if got.Kind != d.Kind || !got.Equal(d) && !(nan && math.IsNaN(got.Float())) {
			t.Fatalf("%v (kind %v) came back as %v (kind %v) via %s", d, d.Kind, got, got.Kind, raw)
		}
	})
}
