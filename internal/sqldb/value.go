// Package sqldb is an embedded relational database engine with a SQL
// subset, used as GOOFI's campaign and results store. The paper stores all
// tool data in "a SQL compatible database" (three tables linked by foreign
// keys, Fig 4); this package provides that substrate with CREATE TABLE
// (PRIMARY KEY, FOREIGN KEY ... REFERENCES), INSERT, SELECT (WHERE,
// ORDER BY, LIMIT, aggregates, GROUP BY), UPDATE, DELETE, `?` parameters,
// referential-integrity enforcement, and file persistence.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value.
type Kind uint8

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KReal
	KText
	KBlob
)

// String returns the SQL type name for the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INTEGER"
	case KReal:
		return "REAL"
	case KText:
		return "TEXT"
	case KBlob:
		return "BLOB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one SQL value. The zero value is NULL.
type Value struct {
	K Kind
	I int64
	R float64
	S string
	B []byte
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Real returns a REAL value.
func Real(r float64) Value { return Value{K: KReal, R: r} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{K: KText, S: s} }

// Blob returns a BLOB value (the bytes are not copied).
func Blob(b []byte) Value { return Value{K: KBlob, B: b} }

// Bool returns an INTEGER 0/1 value, the SQL convention for booleans.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KNull }

// Truth reports the SQL truthiness of a value: non-zero numbers are true;
// NULL and everything else is false.
func (v Value) Truth() bool {
	switch v.K {
	case KInt:
		return v.I != 0
	case KReal:
		return v.R != 0
	default:
		return false
	}
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() (int64, error) {
	switch v.K {
	case KInt:
		return v.I, nil
	case KReal:
		return int64(v.R), nil
	default:
		return 0, fmt.Errorf("sqldb: %s is not numeric", v.K)
	}
}

// AsReal converts numeric values to float64.
func (v Value) AsReal() (float64, error) {
	switch v.K {
	case KInt:
		return float64(v.I), nil
	case KReal:
		return v.R, nil
	default:
		return 0, fmt.Errorf("sqldb: %s is not numeric", v.K)
	}
}

// AsText returns the value as a string (TEXT only).
func (v Value) AsText() (string, error) {
	if v.K != KText {
		return "", fmt.Errorf("sqldb: %s is not text", v.K)
	}
	return v.S, nil
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.K {
	case KNull:
		return "NULL"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KReal:
		return fmt.Sprintf("%g", v.R)
	case KText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KBlob:
		return fmt.Sprintf("x'%x'", v.B)
	default:
		return "?"
	}
}

// Compare orders two non-NULL values: -1, 0 or +1. Integers and reals
// compare numerically across kinds; other cross-kind comparisons are
// errors. NULL never compares equal to anything (callers handle NULL
// three-valued logic before calling Compare).
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("sqldb: cannot compare NULL")
	}
	if (a.K == KInt || a.K == KReal) && (b.K == KInt || b.K == KReal) {
		if a.K == KInt && b.K == KInt {
			return cmpInt(a.I, b.I), nil
		}
		af, _ := a.AsReal()
		bf, _ := b.AsReal()
		return cmpFloat(af, bf), nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("sqldb: cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KText:
		return strings.Compare(a.S, b.S), nil
	case KBlob:
		return cmpBytes(a.B, b.B), nil
	default:
		return 0, fmt.Errorf("sqldb: cannot compare %s values", a.K)
	}
}

// Equal reports value equality (NULL equals nothing, not even NULL,
// following SQL semantics; use IsNull for NULL checks).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// coerce adapts a value to a column type where lossless: integers widen to
// REAL, and NULL passes through. Everything else must match exactly.
func coerce(v Value, want Kind) (Value, error) {
	if v.IsNull() || v.K == want {
		return v, nil
	}
	if want == KReal && v.K == KInt {
		return Real(float64(v.I)), nil
	}
	if want == KInt && v.K == KReal && v.R == float64(int64(v.R)) {
		return Int(int64(v.R)), nil
	}
	return Value{}, fmt.Errorf("sqldb: cannot store %s value in %s column", v.K, want)
}

// appendValueKey appends a value's unique key encoding. Text and blob
// values are length-prefixed so raw bytes need no quoting.
func appendValueKey(buf []byte, v Value) []byte {
	// Normalise ints and reals so 1 and 1.0 collide, as SQL
	// uniqueness requires.
	switch v.K {
	case KReal:
		if v.R == float64(int64(v.R)) {
			buf = append(buf, 'i', ':')
			buf = strconv.AppendInt(buf, int64(v.R), 10)
		} else {
			buf = append(buf, 'r', ':')
			buf = strconv.AppendFloat(buf, v.R, 'g', -1, 64)
		}
	case KInt:
		buf = append(buf, 'i', ':')
		buf = strconv.AppendInt(buf, v.I, 10)
	case KText:
		buf = append(buf, 't', ':')
		buf = strconv.AppendInt(buf, int64(len(v.S)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.S...)
	case KBlob:
		buf = append(buf, 'b', ':')
		buf = strconv.AppendInt(buf, int64(len(v.B)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.B...)
	default:
		buf = append(buf, 'n')
	}
	return append(buf, ';')
}

// keyString encodes a value tuple as a unique map key for indexes.
func keyString(vals []Value) string {
	buf := make([]byte, 0, 48)
	for _, v := range vals {
		buf = appendValueKey(buf, v)
	}
	return string(buf)
}

// rowKey encodes the projection of a row onto the given column positions,
// without materialising the value tuple.
func rowKey(row []Value, colIdx []int) string {
	buf := make([]byte, 0, 48)
	for _, ci := range colIdx {
		buf = appendValueKey(buf, row[ci])
	}
	return string(buf)
}
