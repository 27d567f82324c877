package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// A shard is JSON lines: one entry per line as json.Marshal writes it, oldest
// first, every line ended by a newline. An append is one write of one line,
// so a crash can leave at most a torn last line behind, and a reader drops a
// last line that has no newline and holds no entry.

// errNotEntry is the error of a line that is not a JSON object.
var errNotEntry = errors.New("not an entry")

// shardDecoder reads a line in the one layout json.Marshal gives an Entry,
// byte for byte: the fields of Entry, Fingerprint and Observation under their
// exact names and in their order, map keys ascending, strings of printable
// ASCII with no escape, numbers in JSON's grammar that strconv takes without a
// range error, no null, no empty optional field, no white space. The first
// byte that is anything else sets bad, every later step is then a no-op, and
// decodeShard hands the line to encoding/json — so whatever this decoder
// returns is what json.Unmarshal returns for the same line, and a line it
// cannot read costs one slow read, never another answer or another error.
// FuzzShardDecode holds it to that with the standard library as the oracle.
type shardDecoder struct {
	data []byte
	pos  int
	bad  bool
	// skip validates an entry's sensitive, important and obs without building
	// them; the entry keeps its other fields.
	skip bool
	// fingerprint holds the strings of the last fingerprint, paramKeys and
	// queryKeys the keys of the last best_params and query_secs object by
	// position. A shard repeats one fingerprint and the same few key sets
	// over and over, so a string equal to the one last seen at its place is
	// that string again, not a new one.
	fingerprint          [3]string
	paramKeys, queryKeys []string
	// nParams and nObs are the lengths of the last params and obs lists, the
	// capacity the next ones start with.
	nParams, nObs int
}

// decodeShard decodes a shard: each line through shardDecoder, or through
// encoding/json where the decoder declines it. With skip the entries the
// decoder reads come without Sensitive, Important and Obs, which are checked
// all the same, and obs counts every entry's observations. A shard in the
// layout of older stores, one indented JSON array, goes to encoding/json
// whole.
func decodeShard(data []byte, skip bool) (entries []Entry, obs []int, err error) {
	if len(data) > 0 && data[0] != '{' {
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, nil, err
		}
		if skip {
			obs = obsCounts(entries)
		}
		return entries, obs, nil
	}
	d := shardDecoder{skip: skip}
	for n := 1; len(data) > 0; n++ {
		line, rest, whole := bytes.Cut(data, []byte{'\n'})
		e, k, err := d.line(line)
		if err != nil {
			if !whole {
				break // a torn append
			}
			return nil, nil, fmt.Errorf("line %d: %w", n, err)
		}
		entries = append(entries, e)
		if skip {
			obs = append(obs, k)
		}
		data = rest
	}
	return entries, obs, nil
}

// obsCounts counts the observations of entries read whole.
func obsCounts(entries []Entry) []int {
	obs := make([]int, len(entries))
	for i, e := range entries {
		obs[i] = len(e.Obs)
	}
	return obs
}

// line decodes one line and returns len(Obs).
func (d *shardDecoder) line(line []byte) (Entry, int, error) {
	if e, obs, ok := d.own(line); ok {
		return e, obs, nil
	}
	var e Entry
	if len(line) == 0 || line[0] != '{' {
		return e, 0, errNotEntry
	}
	if err := json.Unmarshal(line, &e); err != nil {
		return Entry{}, 0, err
	}
	return e, len(e.Obs), nil
}

// own decodes a line in the store's own layout; ok is false for any other.
func (d *shardDecoder) own(line []byte) (e Entry, obs int, ok bool) {
	d.data, d.pos, d.bad = line, 0, false
	obs = d.entry(&e)
	if d.bad || d.pos != len(line) {
		return Entry{}, 0, false
	}
	return e, obs, true
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

// intern consumes a string after its opening quote and returns it as *last,
// which it first replaces when the string is another.
func (d *shardDecoder) intern(last *string) string {
	if s := d.str(); string(s) != *last {
		*last = string(s)
	}
	return *last
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
// on, item consuming each, through the closing end. It returns their count.
func (d *shardDecoder) items(end byte, item func(i int)) int {
	n := 0
	for !d.bad {
		item(n)
		n++
		if !d.char(',') {
			break
		}
	}
	d.fail(!d.char(end))
	return n
}

// floats consumes a list of numbers after its opening bracket.
func (d *shardDecoder) floats(keep bool) []float64 {
	var out []float64
	if keep {
		out = make([]float64, 0, d.nParams)
	}
	if d.char(']') {
		return out
	}
	n := d.items(']', func(int) {
		if f := d.float(keep); keep {
			out = append(out, f)
		}
	})
	if keep {
		d.nParams = n
	}
	return out
}

// strings consumes a non-empty list of strings after its opening bracket.
func (d *shardDecoder) strings(keep bool) []string {
	var out []string
	d.items(']', func(int) {
		d.lit(`"`)
		if s := d.str(); keep {
			out = append(out, string(s))
		}
	})
	return out
}

// floatMap consumes a non-empty object of numbers after its opening brace,
// keys strictly ascending: that is how they are written, and it leaves no
// duplicate to resolve. keys is the key list to intern against.
func (d *shardDecoder) floatMap(keys *[]string, keep bool) map[string]float64 {
	var out map[string]float64
	if keep {
		out = make(map[string]float64, len(*keys))
	}
	var prev []byte
	d.items('}', func(i int) {
		d.lit(`"`)
		k := d.str()
		d.fail(i > 0 && bytes.Compare(prev, k) >= 0)
		prev = k
		d.lit(":")
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
	d.lit(`{"fingerprint":{"cluster":"`)
	e.Fingerprint.Cluster = d.intern(&d.fingerprint[0])
	d.lit(`,"benchmark":"`)
	e.Fingerprint.Benchmark = d.intern(&d.fingerprint[1])
	d.lit(`,"size_bucket":`)
	bucket := d.int()
	e.Fingerprint.SizeBucket = int(bucket)
	d.fail(int64(e.Fingerprint.SizeBucket) != bucket)
	d.lit(`,"techniques":"`)
	e.Fingerprint.Techniques = d.intern(&d.fingerprint[2])
	d.lit(`},"job_id":"`)
	e.JobID = string(d.str())
	d.lit(`,"created_unix":`)
	e.CreatedUnix = d.int()
	d.lit(`,"target_gb":`)
	e.TargetGB = d.float(true)
	d.lit(`,"tuned_sec":`)
	e.TunedSec = d.float(true)
	d.lit(`,"overhead_sec":`)
	e.OverheadSec = d.float(true)
	d.lit(`,"best_params":{`)
	if !d.char('}') {
		e.BestParams = d.floatMap(&d.paramKeys, true)
	} else {
		e.BestParams = map[string]float64{}
	}
	// The optional fields are never written empty, so each is absent or opens
	// on its first item.
	if d.next(`,"sensitive":[`) {
		e.Sensitive = d.strings(keep)
	}
	if d.next(`,"important":[`) {
		e.Important = d.strings(keep)
	}
	d.lit(`,"obs":[`)
	if keep {
		e.Obs = make([]Observation, 0, d.nObs)
	}
	if !d.char(']') {
		obs = d.items(']', func(int) {
			var o Observation
			d.lit(`{"params":[`)
			o.Params = d.floats(keep)
			d.lit(`,"data_gb":`)
			o.DataGB = d.float(keep)
			d.lit(`,"sec":`)
			o.Sec = d.float(keep)
			if d.next(`,"query_secs":{`) {
				o.QuerySecs = d.floatMap(&d.queryKeys, keep)
			}
			d.lit("}")
			if keep {
				e.Obs = append(e.Obs, o)
			}
		})
		d.nObs = obs
	}
	d.lit("}")
	return obs
}
