package catalog

import (
	"math"
	"testing"

	"manimal/internal/serde"
)

// fuzzJob is the part of a job the result-cache key covers.
type fuzzJob struct {
	mapOnly, sorted bool
	reducers        int
	inputs          []KeyedInput
	conf            map[string]serde.Datum
}

func (j fuzzJob) key() string {
	return ResultKey(j.mapOnly, j.sorted, j.reducers, j.inputs, j.conf)
}

// clone copies j deeply enough for one edit.
func (j fuzzJob) clone() fuzzJob {
	c := j
	c.inputs = append([]KeyedInput(nil), j.inputs...)
	c.conf = make(map[string]serde.Datum, len(j.conf))
	for k, d := range j.conf {
		c.conf[k] = d
	}
	return c
}

// fuzzDatum builds a datum of one of the five kinds from the fuzzer's
// values.
func fuzzDatum(kind uint8, i int64, x float64, s string) serde.Datum {
	switch kind % 5 {
	case 0:
		return serde.Int(i)
	case 1:
		return serde.Float(x)
	case 2:
		return serde.String(s)
	case 3:
		return serde.Bytes([]byte(s))
	default:
		return serde.Bool(i&1 == 1)
	}
}

// otherValue is a datum of d's kind that differs from it. A NaN becomes 0:
// the key reads every NaN as one value, as a program does.
func otherValue(d serde.Datum) serde.Datum {
	switch d.Kind {
	case serde.KindInt64:
		return serde.Int(d.Int() + 1)
	case serde.KindFloat64:
		switch v := d.Float(); {
		case math.IsNaN(v):
			return serde.Float(0)
		case math.IsInf(v, 1):
			return serde.Float(math.MaxFloat64)
		default:
			return serde.Float(math.Nextafter(v, math.Inf(1)))
		}
	case serde.KindString:
		return serde.String(d.Str() + "x")
	case serde.KindBytes:
		return serde.Bytes(append(d.Raw(), 0))
	default:
		return serde.Bool(!d.Flag())
	}
}

// otherKind is a datum of another kind that renders like d where one can,
// so only the kind tells the two apart.
func otherKind(d serde.Datum) serde.Datum {
	if d.Kind == serde.KindString {
		return serde.Bytes([]byte(d.Str()))
	}
	return serde.String(d.String())
}

// FuzzResultKey: the same job always gets the same key, every key is a
// valid cache key, and changing any one field the key covers — map-only,
// sorted output, the reducer count, each input's path, size, mtime and
// program text, and each conf entry's key, value and kind — changes it.
func FuzzResultKey(f *testing.F) {
	f.Add(false, false, 0, "in.rec", int64(10), int64(20), "func Map() {}", "k", uint8(0), int64(1), 0.0, "")
	f.Add(true, true, 3, `a"|1|2`, int64(0), int64(-1), "", "x\ny", uint8(1), int64(0), math.NaN(), "")
	f.Add(false, true, -1, "", int64(math.MaxInt64), int64(math.MinInt64), "p", "", uint8(2), int64(0), 0.0, "0xbeef")
	f.Add(false, false, 2, "in.rec", int64(1), int64(2), "p", "k", uint8(1), int64(0), math.Inf(1), "")
	f.Add(true, false, 1, "\xff", int64(1), int64(1), "\x00", "k", uint8(3), int64(0), 0.0, "")
	f.Add(false, false, 7, "d.rec", int64(5), int64(6), "q", `k"=1`, uint8(4), int64(1), math.Inf(-1), "s")
	f.Fuzz(func(t *testing.T, mapOnly, sorted bool, reducers int, path string, size, mtime int64, prog, confKey string, kind uint8, i int64, x float64, s string) {
		base := fuzzJob{
			mapOnly: mapOnly, sorted: sorted, reducers: reducers,
			inputs: []KeyedInput{
				{File: CacheInput{Path: path, SizeBytes: size, ModTimeNanos: mtime}, Program: prog},
				{File: CacheInput{Path: path + ".2", SizeBytes: mtime, ModTimeNanos: size}, Program: prog + s},
			},
			conf: map[string]serde.Datum{
				confKey:       fuzzDatum(kind, i, x, s),
				confKey + "2": fuzzDatum(kind+1, i, x, s),
			},
		}
		key := base.key()
		if !validCacheKey(key) {
			t.Fatalf("key %q is not a valid cache key", key)
		}
		if again := base.clone().key(); again != key {
			t.Fatalf("the same job keyed %s, then %s", key, again)
		}
		edits := map[string]func(*fuzzJob){
			"map-only": func(j *fuzzJob) { j.mapOnly = !j.mapOnly },
			"sorted":   func(j *fuzzJob) { j.sorted = !j.sorted },
			"reducers": func(j *fuzzJob) { j.reducers++ },
		}
		for n := range base.inputs {
			n := n
			edits["path"+string(rune('0'+n))] = func(j *fuzzJob) { j.inputs[n].File.Path += "x" }
			edits["size"+string(rune('0'+n))] = func(j *fuzzJob) { j.inputs[n].File.SizeBytes++ }
			edits["mtime"+string(rune('0'+n))] = func(j *fuzzJob) { j.inputs[n].File.ModTimeNanos++ }
			edits["program"+string(rune('0'+n))] = func(j *fuzzJob) { j.inputs[n].Program += " " }
		}
		for k, d := range base.conf {
			k, d := k, d
			renamed := k + "'"
			if _, taken := base.conf[renamed]; !taken {
				edits["conf key "+k] = func(j *fuzzJob) { delete(j.conf, k); j.conf[renamed] = d }
			}
			edits["conf value "+k] = func(j *fuzzJob) { j.conf[k] = otherValue(d) }
			edits["conf kind "+k] = func(j *fuzzJob) { j.conf[k] = otherKind(d) }
		}
		for name, edit := range edits {
			j := base.clone()
			edit(&j)
			if j.key() == key {
				t.Errorf("editing %s left the key %s", name, key)
			}
		}
	})
}
