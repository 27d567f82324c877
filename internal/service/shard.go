package service

import (
	"bytes"
	"strconv"
)

// The line breaks of a shard as FileStore writes it
// (json.MarshalIndent(entries, "", " ")), by nesting depth: the list's
// brackets sit at depth 0, its entries at 1, an entry's fields at 2, a fingerprint's fields, a
// map's pairs, a list's strings and the observations at 3, an observation's
// fields at 4, its parameters and query times at 5.
const (
	nl1 = "\n "
	nl2 = "\n  "
	nl3 = "\n   "
	nl4 = "\n    "
	nl5 = "\n     "
)

// entryMark is what a scan that skips an entry's observations keeps of them,
// and where the entry sits: data[off:end] is its object, braces included.
type entryMark struct {
	off, end int
	obs      int // len(Obs)
}

// shardDecoder reads a shard in the one layout FileStore writes, byte for
// byte: that indentation, the fields of Entry, Fingerprint and Observation
// under their exact names and in their order, map keys ascending, strings of
// printable ASCII with no escape, numbers in JSON's grammar that strconv takes
// without a range error, no null, no empty optional field, nothing after the
// closing bracket. The first byte that is anything else sets bad, every later
// step is then a no-op, and the caller hands the file to encoding/json — so
// whatever this decoder returns is what json.Unmarshal returns for the same
// bytes, and a file it cannot read costs one slow read, never another answer
// or another error. FuzzShardDecode holds it to that with the standard library
// as the oracle.
type shardDecoder struct {
	data []byte
	pos  int
	bad  bool
	// skip validates an entry's best_params, sensitive, important and obs
	// without building them; the entry keeps its other fields.
	skip bool
	// paramKeys and queryKeys are the keys of the last best_params and
	// query_secs object by position. A shard repeats the same few key sets a
	// hundred times over, so a key equal to the one last seen at its position
	// is that string again, not a new one.
	paramKeys, queryKeys []string
	// nParams and nObs are the lengths of the last params and obs lists, the
	// capacity the next ones start with.
	nParams, nObs int
}

// decodeShard decodes a shard FileStore wrote. ok is false for any other
// input, and json.Unmarshal decides what it holds. With skip the entries come
// without BestParams, Sensitive, Important and Obs, which are checked all the
// same, and marks locates each entry and counts its observations.
func decodeShard(data []byte, skip bool) (entries []Entry, marks []entryMark, ok bool) {
	d := shardDecoder{data: data, skip: skip}
	d.lit("[")
	for !d.bad {
		d.lit(nl1)
		off := d.pos
		var e Entry
		obs := d.entry(&e)
		entries = append(entries, e)
		if skip {
			marks = append(marks, entryMark{off: off, end: d.pos, obs: obs})
		}
		if !d.char(',') {
			break
		}
	}
	d.lit("\n]")
	if d.bad || d.pos != len(data) {
		return nil, nil, false
	}
	return entries, marks, true
}

// lit consumes exactly s.
func (d *shardDecoder) lit(s string) {
	d.fail(!d.next(s))
}

// fail gives up on the input when cond holds.
func (d *shardDecoder) fail(cond bool) {
	if cond {
		d.bad = true
	}
}

// next consumes s if the input continues with it.
func (d *shardDecoder) next(s string) bool {
	if d.bad || len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// char consumes c if it is the next byte.
func (d *shardDecoder) char(c byte) bool {
	if d.bad || d.pos >= len(d.data) || d.data[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// str consumes a string after its opening quote, through its closing one.
func (d *shardDecoder) str() []byte {
	for i := d.pos; i < len(d.data) && !d.bad; i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s
		case c < ' ' || c > '~' || c == '\\':
			d.bad = true
		}
	}
	d.bad = true
	return nil
}

// digits consumes a run of digits and reports whether there was one.
func (d *shardDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// number consumes a JSON number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
// A leading zero ends the number, so "01" fails at whatever must follow.
func (d *shardDecoder) number() (text []byte, integer, exponent bool) {
	if d.bad {
		return nil, false, false
	}
	start := d.pos
	d.char('-')
	d.fail(!d.char('0') && !d.digits())
	integer = true
	if d.char('.') {
		integer = false
		d.fail(!d.digits())
	}
	if d.char('e') || d.char('E') {
		integer, exponent = false, true
		if !d.char('+') {
			d.char('-')
		}
		d.fail(!d.digits())
	}
	return d.data[start:d.pos], integer, exponent
}

// float consumes a number that fits a float64. With keep unset the value is
// not wanted and only its validity is: digits alone cannot leave the range in
// under three hundred bytes, anything else is parsed to find out.
func (d *shardDecoder) float(keep bool) float64 {
	text, _, exponent := d.number()
	if d.bad || !keep && !exponent && len(text) < 300 {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	d.fail(err != nil)
	return f
}

// int consumes a number that is an integer in int64, which is all
// encoding/json stores into an integer field.
func (d *shardDecoder) int() int64 {
	text, integer, _ := d.number()
	if d.fail(!integer); d.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 64)
	d.fail(err != nil)
	return n
}

// items consumes the rest of a non-empty list or object from its first item
// on: one per line at the depth nl, item consuming each, then end a level
// up. It returns their count.
func (d *shardDecoder) items(nl string, end byte, item func(i int)) int {
	n := 0
	for !d.bad {
		item(n)
		n++
		if !d.char(',') {
			break
		}
		d.lit(nl)
	}
	d.lit(nl[:len(nl)-1])
	d.fail(!d.char(end))
	return n
}

// floats consumes a list of numbers after its opening bracket.
func (d *shardDecoder) floats(nl string, keep bool) []float64 {
	var out []float64
	if keep {
		out = make([]float64, 0, d.nParams)
	}
	if d.char(']') {
		return out
	}
	d.lit(nl)
	n := d.items(nl, ']', func(int) {
		if f := d.float(keep); keep {
			out = append(out, f)
		}
	})
	if keep {
		d.nParams = n
	}
	return out
}

// strings consumes a non-empty list of strings from its first item on.
func (d *shardDecoder) strings(nl string, keep bool) []string {
	var out []string
	d.items(nl, ']', func(int) {
		d.lit(`"`)
		if s := d.str(); keep {
			out = append(out, string(s))
		}
	})
	return out
}

// floatMap consumes a non-empty object of numbers from its first pair on,
// keys strictly ascending: that is how they are written, and it leaves no
// duplicate to resolve. keys is the key list to intern against.
func (d *shardDecoder) floatMap(nl string, keys *[]string, keep bool) map[string]float64 {
	var out map[string]float64
	if keep {
		out = make(map[string]float64, len(*keys))
	}
	var prev []byte
	d.items(nl, '}', func(i int) {
		d.lit(`"`)
		k := d.str()
		d.fail(i > 0 && bytes.Compare(prev, k) >= 0)
		prev = k
		d.lit(": ")
		f := d.float(keep)
		if !keep || d.bad {
			return
		}
		if i == len(*keys) {
			*keys = append(*keys, string(k))
		} else if (*keys)[i] != string(k) {
			(*keys)[i] = string(k)
		}
		out[(*keys)[i]] = f
	})
	return out
}

// entry consumes one entry, brace to brace, and returns len(Obs).
func (d *shardDecoder) entry(e *Entry) (obs int) {
	keep := !d.skip
	d.lit("{" + nl2 + `"fingerprint": {` + nl3 + `"cluster": "`)
	e.Fingerprint.Cluster = string(d.str())
	d.lit("," + nl3 + `"benchmark": "`)
	e.Fingerprint.Benchmark = string(d.str())
	d.lit("," + nl3 + `"size_bucket": `)
	bucket := d.int()
	e.Fingerprint.SizeBucket = int(bucket)
	d.fail(int64(e.Fingerprint.SizeBucket) != bucket)
	d.lit("," + nl3 + `"techniques": "`)
	e.Fingerprint.Techniques = string(d.str())
	d.lit(nl2 + "}," + nl2 + `"job_id": "`)
	e.JobID = string(d.str())
	d.lit("," + nl2 + `"created_unix": `)
	e.CreatedUnix = d.int()
	d.lit("," + nl2 + `"target_gb": `)
	e.TargetGB = d.float(true)
	d.lit("," + nl2 + `"tuned_sec": `)
	e.TunedSec = d.float(true)
	d.lit("," + nl2 + `"overhead_sec": `)
	e.OverheadSec = d.float(true)
	d.lit("," + nl2 + `"best_params": {`)
	if !d.char('}') {
		d.lit(nl3)
		e.BestParams = d.floatMap(nl3, &d.paramKeys, keep)
	} else if keep {
		e.BestParams = map[string]float64{}
	}
	// The optional fields are never written empty, so each is its opening
	// bracket and the line break before its first item, or absent.
	if d.next("," + nl2 + `"sensitive": [` + nl3) {
		e.Sensitive = d.strings(nl3, keep)
	}
	if d.next("," + nl2 + `"important": [` + nl3) {
		e.Important = d.strings(nl3, keep)
	}
	d.lit("," + nl2 + `"obs": [`)
	if keep {
		e.Obs = make([]Observation, 0, d.nObs)
	}
	if !d.char(']') {
		d.lit(nl3)
		obs = d.items(nl3, ']', func(int) {
			var o Observation
			d.lit("{" + nl4 + `"params": [`)
			o.Params = d.floats(nl5, keep)
			d.lit("," + nl4 + `"data_gb": `)
			o.DataGB = d.float(keep)
			d.lit("," + nl4 + `"sec": `)
			o.Sec = d.float(keep)
			if d.next("," + nl4 + `"query_secs": {` + nl5) {
				o.QuerySecs = d.floatMap(nl5, &d.queryKeys, keep)
			}
			d.lit(nl3 + "}")
			if keep {
				e.Obs = append(e.Obs, o)
			}
		})
		d.nObs = obs
	}
	d.lit(nl1 + "}")
	return obs
}
