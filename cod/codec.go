package cod

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"codsim/internal/wire"
)

// The codec maps a plain Go struct to and from a wire.AttrSet. Attribute
// IDs are assigned positionally: the i-th encoded field (exported, not
// tagged `cod:"-"`, in declaration order) gets AttrID i+1. Both ends of a
// class therefore interoperate exactly when they declare the same fields
// in the same order — the struct *is* the object-model entry, the typed
// analog of a fom class.
//
// Supported field kinds: bool, all int/uint sizes, float32/float64,
// string, []byte, []float64, []int64, []string. Unexported fields are
// skipped; any other exported kind is rejected when the codec is built,
// so Publish/Subscribe fail fast instead of dropping data at runtime.
//
// Reflection runs only at build time. The cached field table holds each
// field's byte offset and scalar kind, so the encode/decode hot path is a
// switch over direct loads and stores through the struct pointer — no
// reflect.Value per field, no interface boxing. Strings and slices keep
// the reflect path (their getters allocate anyway, and reflect handles
// named-type conversion); scalars, which dominate simulation state, go
// through the offset fast path.

// ErrUnsupportedType reports a struct field the codec cannot map.
var ErrUnsupportedType = errors.New("cod: unsupported field type")

// ErrMissingAttr reports a reflection that lacks an attribute the
// subscriber's struct declares — the two ends disagree on the class shape.
var ErrMissingAttr = errors.New("cod: missing attribute")

// fieldKind enumerates the wire-mappable field shapes. Scalar kinds are
// distinguished by width so the hot path can load/store the exact type.
type fieldKind uint8

const (
	kindBool fieldKind = iota
	kindInt
	kindInt8
	kindInt16
	kindInt32
	kindInt64
	kindUint
	kindUint8
	kindUint16
	kindUint32
	kindUint64
	kindFloat32
	kindFloat64
	kindString
	kindBytes
	kindFloat64s
	kindInt64s
	kindStrings
)

type fieldCodec struct {
	name  string
	id    wire.AttrID
	index int
	off   uintptr // byte offset within the struct, fixed at build time
	kind  fieldKind
}

type codec struct {
	typ    reflect.Type
	fields []fieldCodec
}

// codecCache memoizes built codecs by struct type; reflection runs once
// per type per process, the hot path only walks the cached field table.
var codecCache sync.Map // reflect.Type → *codec or error

func codecFor(t reflect.Type) (*codec, error) {
	if cached, ok := codecCache.Load(t); ok {
		if err, bad := cached.(error); bad {
			return nil, err
		}
		return cached.(*codec), nil
	}
	c, err := buildCodec(t)
	if err != nil {
		codecCache.Store(t, err)
		return nil, err
	}
	codecCache.Store(t, c)
	return c, nil
}

func buildCodec(t reflect.Type) (*codec, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: %s is not a struct", ErrUnsupportedType, t)
	}
	c := &codec{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("cod") == "-" {
			continue
		}
		kind, err := kindFor(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: %s.%s (%s)", ErrUnsupportedType, t, f.Name, f.Type)
		}
		c.fields = append(c.fields, fieldCodec{
			name:  f.Name,
			id:    wire.AttrID(len(c.fields) + 1),
			index: i,
			off:   f.Offset,
			kind:  kind,
		})
	}
	if len(c.fields) == 0 {
		return nil, fmt.Errorf("%w: %s has no encodable fields", ErrUnsupportedType, t)
	}
	return c, nil
}

func kindFor(t reflect.Type) (fieldKind, error) {
	switch t.Kind() {
	case reflect.Bool:
		return kindBool, nil
	case reflect.Int:
		return kindInt, nil
	case reflect.Int8:
		return kindInt8, nil
	case reflect.Int16:
		return kindInt16, nil
	case reflect.Int32:
		return kindInt32, nil
	case reflect.Int64:
		return kindInt64, nil
	case reflect.Uint:
		return kindUint, nil
	case reflect.Uint8:
		return kindUint8, nil
	case reflect.Uint16:
		return kindUint16, nil
	case reflect.Uint32:
		return kindUint32, nil
	case reflect.Uint64:
		return kindUint64, nil
	case reflect.Float32:
		return kindFloat32, nil
	case reflect.Float64:
		return kindFloat64, nil
	case reflect.String:
		return kindString, nil
	case reflect.Slice:
		return sliceKind(t)
	default:
		return 0, ErrUnsupportedType
	}
}

// Canonical slice types the codec serializes. Named slice types with these
// exact element types (type Path []float64) are converted through them;
// named *element* types ([]MyFloat) are rejected at build time because Go
// forbids the slice conversion — rejecting keeps the fail-fast contract.
var (
	bytesType    = reflect.TypeOf([]byte(nil))
	float64sType = reflect.TypeOf([]float64(nil))
	int64sType   = reflect.TypeOf([]int64(nil))
	stringsType  = reflect.TypeOf([]string(nil))
)

func sliceKind(t reflect.Type) (fieldKind, error) {
	switch t.Elem() {
	case bytesType.Elem():
		return kindBytes, nil
	case float64sType.Elem():
		return kindFloat64s, nil
	case int64sType.Elem():
		return kindInt64s, nil
	case stringsType.Elem():
		return kindStrings, nil
	default:
		return 0, ErrUnsupportedType
	}
}

// encodeInto packs the struct at p (a *T matching c.typ) into a. Scalars
// load straight through the field offset; strings and slices go through a
// lazily built reflect view for named-type conversion.
func (c *codec) encodeInto(a *wire.AttrSet, p unsafe.Pointer) {
	var sv reflect.Value
	for i := range c.fields {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		switch f.kind {
		case kindBool:
			a.PutBool(f.id, *(*bool)(fp))
		case kindInt:
			a.PutInt64(f.id, int64(*(*int)(fp)))
		case kindInt8:
			a.PutInt64(f.id, int64(*(*int8)(fp)))
		case kindInt16:
			a.PutInt64(f.id, int64(*(*int16)(fp)))
		case kindInt32:
			a.PutInt64(f.id, int64(*(*int32)(fp)))
		case kindInt64:
			a.PutInt64(f.id, *(*int64)(fp))
		case kindUint:
			a.PutInt64(f.id, int64(*(*uint)(fp)))
		case kindUint8:
			a.PutInt64(f.id, int64(*(*uint8)(fp)))
		case kindUint16:
			a.PutInt64(f.id, int64(*(*uint16)(fp)))
		case kindUint32:
			a.PutInt64(f.id, int64(*(*uint32)(fp)))
		case kindUint64:
			a.PutInt64(f.id, int64(*(*uint64)(fp)))
		case kindFloat32:
			a.PutFloat64(f.id, float64(*(*float32)(fp)))
		case kindFloat64:
			a.PutFloat64(f.id, *(*float64)(fp))
		default:
			if !sv.IsValid() {
				sv = reflect.NewAt(c.typ, p).Elem()
			}
			encodeReflect(a, f, sv.Field(f.index))
		}
	}
}

func encodeReflect(a *wire.AttrSet, f *fieldCodec, v reflect.Value) {
	switch f.kind {
	case kindString:
		a.PutString(f.id, v.String())
	case kindBytes:
		a.PutBytes(f.id, v.Bytes())
	case kindFloat64s:
		a.PutFloat64s(f.id, v.Convert(float64sType).Interface().([]float64))
	case kindInt64s:
		a.PutInt64s(f.id, v.Convert(int64sType).Interface().([]int64))
	case kindStrings:
		a.PutStrings(f.id, v.Convert(stringsType).Interface().([]string))
	}
}

// decodeInto unpacks an AttrSet into the struct at p (a *T matching
// c.typ). Every declared field must be present and well-sized, or the
// reflection is rejected: a silent partial fill would hand modules
// half-stale state.
func (c *codec) decodeInto(a wire.AttrSet, p unsafe.Pointer) error {
	var sv reflect.Value
	for i := range c.fields {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		var ok bool
		switch f.kind {
		case kindBool:
			var b bool
			if b, ok = a.Bool(f.id); ok {
				*(*bool)(fp) = b
			}
		case kindInt:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*int)(fp) = int(n)
			}
		case kindInt8:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*int8)(fp) = int8(n)
			}
		case kindInt16:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*int16)(fp) = int16(n)
			}
		case kindInt32:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*int32)(fp) = int32(n)
			}
		case kindInt64:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*int64)(fp) = n
			}
		case kindUint:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*uint)(fp) = uint(n)
			}
		case kindUint8:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*uint8)(fp) = uint8(n)
			}
		case kindUint16:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*uint16)(fp) = uint16(n)
			}
		case kindUint32:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*uint32)(fp) = uint32(n)
			}
		case kindUint64:
			var n int64
			if n, ok = a.Int64(f.id); ok {
				*(*uint64)(fp) = uint64(n)
			}
		case kindFloat32:
			var x float64
			if x, ok = a.Float64(f.id); ok {
				*(*float32)(fp) = float32(x)
			}
		case kindFloat64:
			var x float64
			if x, ok = a.Float64(f.id); ok {
				*(*float64)(fp) = x
			}
		default:
			if !sv.IsValid() {
				sv = reflect.NewAt(c.typ, p).Elem()
			}
			ok = decodeReflect(a, f, sv.Field(f.index))
		}
		if !ok {
			return fmt.Errorf("%w: %s.%s (attr %d)", ErrMissingAttr, c.typ, f.name, f.id)
		}
	}
	return nil
}

func decodeReflect(a wire.AttrSet, f *fieldCodec, v reflect.Value) bool {
	switch f.kind {
	case kindString:
		s, ok := a.String(f.id)
		if ok {
			v.SetString(s)
		}
		return ok
	case kindBytes:
		b, ok := a.Bytes(f.id)
		if ok {
			cp := make([]byte, len(b))
			copy(cp, b)
			v.Set(reflect.ValueOf(cp).Convert(v.Type()))
		}
		return ok
	case kindFloat64s:
		vs, ok := a.Float64s(f.id)
		if ok {
			v.Set(reflect.ValueOf(vs).Convert(v.Type()))
		}
		return ok
	case kindInt64s:
		vs, ok := a.Int64s(f.id)
		if ok {
			v.Set(reflect.ValueOf(vs).Convert(v.Type()))
		}
		return ok
	default: // kindStrings
		vs, ok := a.Strings(f.id)
		if ok {
			v.Set(reflect.ValueOf(vs).Convert(v.Type()))
		}
		return ok
	}
}
