package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
)

// Identity fingerprints a run's parameters into the 64-bit identity
// stored in journal headers and replay snapshots, so resuming with
// different parameters (or against another run's directory) fails
// loudly instead of merging incompatible work.
//
// Each part is hashed by a canonical encoding of its whole value, walked
// by reflection, so a field added to a config joins every identity built
// from it without anyone listing it. Every value starts with its kind;
// struct fields follow in declaration order, unexported ones included;
// pointers and interfaces record nil apart from non-nil, and an
// interface also records its dynamic type, so exp:15 and det:15 differ;
// strings, slices and arrays carry their length; floats are hashed by
// bit pattern. A nil slice hashes like an empty one. Maps, funcs,
// channels and uintptrs have no canonical encoding and panic; no config
// holds one.
func Identity(parts ...any) uint64 {
	var b []byte
	for i := range parts {
		b = appendCanonical(b, reflect.ValueOf(&parts[i]).Elem())
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// appendCanonical appends v's canonical encoding (see Identity) to b.
func appendCanonical(b []byte, v reflect.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.BigEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.BigEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Slice, reflect.Array:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendCanonical(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendCanonical(b, v.Field(i))
		}
		return b
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, 0)
		}
		b = append(b, 1)
		if v.Kind() == reflect.Interface {
			b = appendString(b, v.Elem().Type().String())
		}
		return appendCanonical(b, v.Elem())
	}
	panic(fmt.Sprintf("checkpoint: Identity cannot encode a %s value (type %s)", v.Kind(), v.Type()))
}

func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint64(b, uint64(len(s))), s...)
}
