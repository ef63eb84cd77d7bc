package schemav1

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Round trip every binary codec through encode → decode and compare.
func TestBinaryRoundTrip(t *testing.T) {
	put := KVPut{Key: "rates/web/gold/us-east/h1", Value: 1.5e9, TTLMs: 30000}
	var put2 KVPut
	if err := put2.DecodeBinary(put.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if put2 != put {
		t.Errorf("KVPut = %+v, want %+v", put2, put)
	}

	key := KVKey{Key: "rates/web/gold/us-east/"}
	var key2 KVKey
	if err := key2.DecodeBinary(key.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Errorf("KVKey = %+v, want %+v", key2, key)
	}

	get := KVGetReply{Value: -0.25, Found: true}
	var get2 KVGetReply
	if err := get2.DecodeBinary(get.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if get2 != get {
		t.Errorf("KVGetReply = %+v, want %+v", get2, get)
	}

	sum := KVSumReply{Sum: 42}
	var sum2 KVSumReply
	if err := sum2.DecodeBinary(sum.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if sum2 != sum {
		t.Errorf("KVSumReply = %+v, want %+v", sum2, sum)
	}

	rq := DBRateQuery{NPG: "web", Class: "gold", Region: "us-east", Dir: "egress", AtUnix: -1234567}
	var rq2 DBRateQuery
	if err := rq2.DecodeBinary(rq.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if rq2 != rq {
		t.Errorf("DBRateQuery = %+v, want %+v", rq2, rq)
	}

	ex := KVExchange{
		Puts:     []KVPut{put, {Key: "conform/web/gold/us-east/h1", Value: 1e9, TTLMs: 1}},
		Prefixes: []string{"rates/web/gold/us-east/", "", "conform/web/gold/us-east/"},
	}
	var ex2 KVExchange
	if err := ex2.DecodeBinary(ex.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex2, ex) {
		t.Errorf("KVExchange = %+v, want %+v", ex2, ex)
	}
	// Decoding into a message that held longer lists leaves no stale tail.
	short := KVExchange{Puts: []KVPut{put}}
	if err := ex2.DecodeBinary(short.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if len(ex2.Puts) != 1 || ex2.Puts[0] != put || len(ex2.Prefixes) != 0 {
		t.Errorf("KVExchange reused = %+v, want %+v", ex2, short)
	}

	exr := KVExchangeReply{Sums: []float64{3.5e9, 0, -1}}
	var exr2 KVExchangeReply
	if err := exr2.DecodeBinary(exr.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exr2, exr) {
		t.Errorf("KVExchangeReply = %+v, want %+v", exr2, exr)
	}

	rr := DBRateReply{Rate: 9.75e8, Found: false}
	var rr2 DBRateReply
	if err := rr2.DecodeBinary(rr.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if rr2 != rr {
		t.Errorf("DBRateReply = %+v, want %+v", rr2, rr)
	}
}

// The binary layouts are frozen (the codec is positional): pin exact bytes
// so an accidental field reorder or encoding change fails loudly, not just
// against the schema lock.
func TestBinaryGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string // hex
	}{
		{
			name: "KVPut",
			got:  (&KVPut{Key: "k", Value: 1.0, TTLMs: 1}).AppendBinary(nil),
			// uvarint len 1, 'k', float64(1.0) BE bits, zigzag(1)=2
			want: "016b" + "3ff0000000000000" + "02",
		},
		{
			name: "KVKey",
			got:  (&KVKey{Key: "ab"}).AppendBinary(nil),
			want: "026162",
		},
		{
			name: "KVGetReply",
			got:  (&KVGetReply{Value: 2.0, Found: true}).AppendBinary(nil),
			want: "4000000000000000" + "01",
		},
		{
			name: "KVSumReply",
			got:  (&KVSumReply{Sum: 0}).AppendBinary(nil),
			want: "0000000000000000",
		},
		{
			name: "KVExchange",
			got: (&KVExchange{
				Puts:     []KVPut{{Key: "k", Value: 1.0, TTLMs: 1}},
				Prefixes: []string{"ab", ""},
			}).AppendBinary(nil),
			// one put encoded as KVPut, then two prefixes
			want: "01" + "016b" + "3ff0000000000000" + "02" + "02" + "026162" + "00",
		},
		{
			name: "KVExchange empty",
			got:  (&KVExchange{}).AppendBinary(nil),
			want: "00" + "00",
		},
		{
			name: "KVExchangeReply",
			got:  (&KVExchangeReply{Sums: []float64{2.0, 0}}).AppendBinary(nil),
			want: "02" + "4000000000000000" + "0000000000000000",
		},
		{
			name: "DBRateQuery",
			got:  (&DBRateQuery{NPG: "n", Class: "c", Region: "r", Dir: "d", AtUnix: -1}).AppendBinary(nil),
			// four len-1 strings, zigzag(-1)=1
			want: "016e" + "0163" + "0172" + "0164" + "01",
		},
		{
			name: "DBRateReply",
			got:  (&DBRateReply{Rate: 2.0, Found: false}).AppendBinary(nil),
			want: "4000000000000000" + "00",
		},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encoding = %s, want %s", c.name, got, c.want)
		}
	}
}

// Decoders never panic and reject malformed input: truncation, trailing
// bytes, bad bool bytes.
func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	full := (&KVPut{Key: "key", Value: 1, TTLMs: 5}).AppendBinary(nil)
	for i := 0; i < len(full); i++ {
		var p KVPut
		if err := p.DecodeBinary(full[:i]); err == nil {
			t.Errorf("truncated KVPut at %d accepted", i)
		}
	}
	var p KVPut
	if err := p.DecodeBinary(append(full, 0xFF)); err != ErrTrailingBytes {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
	bad := (&KVGetReply{Value: 1, Found: true}).AppendBinary(nil)
	bad[len(bad)-1] = 7 // invalid bool byte
	var g KVGetReply
	if err := g.DecodeBinary(bad); err == nil {
		t.Error("invalid bool byte accepted")
	}

	ex := (&KVExchange{
		Puts:     []KVPut{{Key: "key", Value: 1, TTLMs: 5}, {Key: "k2", Value: 2, TTLMs: 0}},
		Prefixes: []string{"p/", "q/"},
	}).AppendBinary(nil)
	exr := (&KVExchangeReply{Sums: []float64{1, 2}}).AppendBinary(nil)
	for _, c := range []struct {
		m    WireUnmarshaler
		full []byte
	}{{new(KVExchange), ex}, {new(KVExchangeReply), exr}} {
		for i := 0; i < len(c.full); i++ {
			if err := c.m.DecodeBinary(c.full[:i]); err == nil {
				t.Errorf("truncated %T at %d accepted", c.m, i)
			}
		}
		if err := c.m.DecodeBinary(append(c.full, 0)); err != ErrTrailingBytes {
			t.Errorf("%T trailing bytes: err = %v, want ErrTrailingBytes", c.m, err)
		}
	}
	// A count larger than the rest of the payload could hold.
	for name, raw := range map[string]string{
		"puts":     "02" + "016b" + "3ff0000000000000" + "02" + "00",
		"prefixes": "00" + "03" + "0161" + "0162",
		"sums":     "02" + "4000000000000000",
	} {
		b, _ := hex.DecodeString(raw)
		var m WireUnmarshaler = new(KVExchange)
		if name == "sums" {
			m = new(KVExchangeReply)
		}
		if err := m.DecodeBinary(b); err != ErrShortBuffer {
			t.Errorf("overlong %s count: err = %v, want ErrShortBuffer", name, err)
		}
	}
}

func TestBinaryDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		var p KVPut
		p.DecodeBinary(raw)
		var k KVKey
		k.DecodeBinary(raw)
		var g KVGetReply
		g.DecodeBinary(raw)
		var s KVSumReply
		s.DecodeBinary(raw)
		var q DBRateQuery
		q.DecodeBinary(raw)
		var r DBRateReply
		r.DecodeBinary(raw)
		var x KVExchange
		x.DecodeBinary(raw)
		var xr KVExchangeReply
		xr.DecodeBinary(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	// A list count is bounded by the bytes that follow it before anything
	// is allocated: a 10-byte payload claiming 2⁶⁰ puts (or prefixes, or
	// sums) is rejected without allocating room for them.
	huge := binary.AppendUvarint(nil, 1<<60)
	for name, raw := range map[string][]byte{
		"puts":     append(huge, make([]byte, 10-len(huge))...),
		"prefixes": append(append([]byte{0}, huge...), make([]byte, 9-len(huge))...),
	} {
		if len(raw) != 10 {
			t.Fatalf("%s payload is %d bytes", name, len(raw))
		}
		var x KVExchange
		allocs := testing.AllocsPerRun(10, func() {
			if err := x.DecodeBinary(raw); err != ErrShortBuffer {
				t.Errorf("2^60 %s: err = %v, want ErrShortBuffer", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("2^60 %s: decoding allocated %v times", name, allocs)
		}
	}
	sums := append(huge, make([]byte, 10-len(huge))...)
	var xr KVExchangeReply
	allocs := testing.AllocsPerRun(10, func() {
		if err := xr.DecodeBinary(sums); err != ErrShortBuffer {
			t.Errorf("2^60 sums: err = %v, want ErrShortBuffer", err)
		}
	})
	if allocs != 0 {
		t.Errorf("2^60 sums: decoding allocated %v times", allocs)
	}
}

// Property: KVPut and DBRateQuery round-trip arbitrary values.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(key string, value float64, ttl int64) bool {
		in := KVPut{Key: key, Value: value, TTLMs: ttl}
		var out KVPut
		if err := out.DecodeBinary(in.AppendBinary(nil)); err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via encode-again.
		return bytes.Equal(in.AppendBinary(nil), out.AppendBinary(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Encoders are allocation-free when the destination has capacity.
func TestAppendBinaryNoAlloc(t *testing.T) {
	put := &KVPut{Key: "rates/web/gold/us-east/h1", Value: 1.5e9, TTLMs: 30000}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = put.AppendBinary(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendBinary allocs/op = %g, want 0", allocs)
	}
	var out KVPut
	allocs = testing.AllocsPerRun(100, func() {
		if err := out.DecodeBinary(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeBinary allocs/op = %g, want 0", allocs)
	}
}

// BenchmarkKVPutCodec is one publish payload encoded and decoded, no envelope
// and no socket: the codec cost the agents' per-cycle Put pays, binary
// against the JSON it replaced.
func BenchmarkKVPutCodec(b *testing.B) {
	put := KVPut{Key: "rates/cluster-a/web/host-017", Value: 1234.5625, TTLMs: 60000}
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		var dec KVPut
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = put.AppendBinary(buf[:0])
			if err := dec.DecodeBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		var dec KVPut
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(&put)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(buf, &dec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- fingerprints and the lock ---------------------------------------------

// Fingerprints are stable for identical shapes and differ when a field is
// renamed, retyped, retagged, added, or reordered. The mutated shapes are
// built with reflect.StructOf — exactly the drift schemavet must catch.
func TestFingerprintDetectsMutations(t *testing.T) {
	base := reflect.TypeOf(KVPut{})
	fields := []reflect.StructField{
		{Name: "Key", Type: reflect.TypeOf(""), Tag: `json:"key"`},
		{Name: "Value", Type: reflect.TypeOf(float64(0)), Tag: `json:"value"`},
		{Name: "TTLMs", Type: reflect.TypeOf(int64(0)), Tag: `json:"ttl_ms"`},
	}
	same := reflect.StructOf(fields)
	if Fingerprint(base) != Fingerprint(same) {
		t.Errorf("identical shape fingerprints differ:\n%s\nvs\n%s", Render(base), Render(same))
	}

	mutate := func(name string, mut func([]reflect.StructField) []reflect.StructField) {
		fs := append([]reflect.StructField(nil), fields...)
		mutated := reflect.StructOf(mut(fs))
		if Fingerprint(base) == Fingerprint(mutated) {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	mutate("rename field", func(fs []reflect.StructField) []reflect.StructField {
		fs[0].Name = "Keyname"
		return fs
	})
	mutate("change tag", func(fs []reflect.StructField) []reflect.StructField {
		fs[0].Tag = `json:"key2"`
		return fs
	})
	mutate("change type", func(fs []reflect.StructField) []reflect.StructField {
		fs[1].Type = reflect.TypeOf(float32(0))
		return fs
	})
	mutate("reorder fields", func(fs []reflect.StructField) []reflect.StructField {
		fs[0], fs[1] = fs[1], fs[0]
		return fs
	})
	mutate("append field", func(fs []reflect.StructField) []reflect.StructField {
		return append(fs, reflect.StructField{Name: "Extra", Type: reflect.TypeOf(""), Tag: `json:"extra,omitempty"`})
	})
}

// Unexported and json:"-" fields are invisible to the fingerprint — they
// are invisible to every codec too.
func TestFingerprintIgnoresNonWireFields(t *testing.T) {
	type visible struct {
		A string `json:"a"`
	}
	type withHidden struct {
		A      string `json:"a"`
		Secret string `json:"-"`
	}
	if Fingerprint(reflect.TypeOf(visible{})) != Fingerprint(reflect.TypeOf(withHidden{})) {
		t.Error("json:\"-\" field changed the fingerprint")
	}
}

// FormatLock → ParseLock → Check is clean for the live defs, and Check
// reports drift, missing pins, and stale pins.
func TestLockRoundTripAndCheck(t *testing.T) {
	live := Entries(Defs())
	lock := FormatLock(live)
	parsed := ParseLock(lock)
	if len(parsed) != len(live) {
		t.Fatalf("ParseLock returned %d entries, want %d", len(parsed), len(live))
	}
	if problems := Check(live, parsed); len(problems) != 0 {
		t.Errorf("clean lock reported problems: %v", problems)
	}

	// Drift: change one fingerprint.
	drifted := append([]LockEntry(nil), parsed...)
	drifted[0].Fingerprint = "sha256:deadbeef"
	problems := Check(live, drifted)
	if len(problems) != 1 || !strings.Contains(problems[0], "changed without a version bump") {
		t.Errorf("drift problems = %v", problems)
	}

	// Missing pin: drop one.
	problems = Check(live, parsed[1:])
	if len(problems) != 1 || !strings.Contains(problems[0], "not pinned") {
		t.Errorf("missing-pin problems = %v", problems)
	}

	// Stale pin: lock knows a schema the code no longer has.
	stale := append([]LockEntry(nil), parsed...)
	stale = append(stale, LockEntry{Name: "wire.retired", Version: 1, Fingerprint: "sha256:00"})
	problems = Check(live, stale)
	if len(problems) != 1 || !strings.Contains(problems[0], "no longer exists") {
		t.Errorf("stale-pin problems = %v", problems)
	}

	// Version mismatch.
	bumped := append([]LockEntry(nil), parsed...)
	bumped[0].Version = 2
	problems = Check(live, bumped)
	if len(problems) != 1 || !strings.Contains(problems[0], "v2 in the lock") {
		t.Errorf("version problems = %v", problems)
	}
}

// The defs registry stays internally consistent: unique names, version 1,
// binary flags only on shapes that actually implement the codecs.
func TestDefsConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Defs() {
		if seen[d.Name] {
			t.Errorf("duplicate def %q", d.Name)
		}
		seen[d.Name] = true
		if d.Version != Version {
			t.Errorf("def %q version = %d, want %d", d.Name, d.Version, Version)
		}
		ptr := reflect.New(d.Type).Interface()
		_, isAppend := ptr.(AppendMarshaler)
		_, isDecode := ptr.(WireUnmarshaler)
		hasCodec := isAppend && isDecode
		// The envelope shapes are encoded by the wire package itself, not
		// through the payload-codec interfaces.
		envelope := d.Name == "wire.request" || d.Name == "wire.response"
		if d.Binary && !hasCodec && !envelope {
			t.Errorf("def %q marked Binary but implements no codec", d.Name)
		}
		if !d.Binary && hasCodec {
			t.Errorf("def %q has binary codecs but is not marked Binary", d.Name)
		}
	}
}
