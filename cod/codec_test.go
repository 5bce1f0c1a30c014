package cod

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"codsim/internal/wire"
)

// allKinds exercises every supported field kind of the codec.
type allKinds struct {
	F64     float64
	F32     float32
	I       int
	I64     int64
	U32     uint32
	B       bool
	S       string
	Raw     []byte
	Floats  []float64
	Ints    []int64
	Names   []string
	skipped int    // unexported: ignored
	Ignored string `cod:"-"`
}

func TestCodecRoundTrip(t *testing.T) {
	in := allKinds{
		F64:    3.25,
		F32:    -1.5,
		I:      -42,
		I64:    1 << 40,
		U32:    7,
		B:      true,
		S:      "boom",
		Raw:    []byte{0, 1, 2},
		Floats: []float64{1.5, -2.5},
		Ints:   []int64{-9, 9},
		Names:  []string{"hook", "", "cargo"},
	}
	c, err := codecFor(reflect.TypeOf(in))
	if err != nil {
		t.Fatal(err)
	}
	var attrs wire.AttrSet
	c.encodeInto(&attrs, unsafe.Pointer(&in))
	var out allKinds
	if err := c.decodeInto(attrs, unsafe.Pointer(&out)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestCodecIsCached(t *testing.T) {
	c1, err := codecFor(reflect.TypeOf(allKinds{}))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := codecFor(reflect.TypeOf(allKinds{}))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("codec was rebuilt instead of served from the cache")
	}
}

// Named slice types (exact element types) convert through the canonical
// encodings; named element types are rejected at build time, not at the
// first Update.
func TestCodecNamedSliceTypes(t *testing.T) {
	type Path []float64
	type Blob []byte
	type Tags []string
	type ok struct {
		P Path
		B Blob
		T Tags
	}
	in := ok{P: Path{1, 2}, B: Blob{3}, T: Tags{"a"}}
	c, err := codecFor(reflect.TypeOf(in))
	if err != nil {
		t.Fatal(err)
	}
	var attrs wire.AttrSet
	c.encodeInto(&attrs, unsafe.Pointer(&in))
	var out ok
	if err := c.decodeInto(attrs, unsafe.Pointer(&out)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("named-slice round trip mismatch:\n in  %+v\n out %+v", in, out)
	}

	type MyFloat float64
	type badElem struct{ V []MyFloat }
	if _, err := codecFor(reflect.TypeOf(badElem{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("named element type: got %v, want ErrUnsupportedType", err)
	}
}

func TestCodecUnsupportedField(t *testing.T) {
	type bad struct {
		OK float64
		Ch chan int
	}
	if _, err := codecFor(reflect.TypeOf(bad{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("chan field: got %v, want ErrUnsupportedType", err)
	}
	type empty struct {
		hidden int
	}
	if _, err := codecFor(reflect.TypeOf(empty{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("no encodable fields: got %v, want ErrUnsupportedType", err)
	}
	if _, err := codecFor(reflect.TypeOf(42)); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("non-struct: got %v, want ErrUnsupportedType", err)
	}
}

func TestCodecMissingAttr(t *testing.T) {
	type narrow struct{ A float64 }
	type wide struct{ A, B float64 }
	nc, err := codecFor(reflect.TypeOf(narrow{}))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := codecFor(reflect.TypeOf(wide{}))
	if err != nil {
		t.Fatal(err)
	}
	in := narrow{A: 1}
	var attrs wire.AttrSet
	nc.encodeInto(&attrs, unsafe.Pointer(&in))
	var out wide
	if err := wc.decodeInto(attrs, unsafe.Pointer(&out)); !errors.Is(err, ErrMissingAttr) {
		t.Fatalf("decode with missing attr: got %v, want ErrMissingAttr", err)
	}
}
