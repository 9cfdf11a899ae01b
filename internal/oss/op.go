package oss

import "fmt"

// Kind names one of the six Store calls.
type Kind uint8

// The six kinds of request.
const (
	KindPut Kind = iota
	KindGet
	KindGetRange
	KindHead
	KindDelete
	KindList
)

var kindNames = [...]string{"put", "get", "getrange", "head", "delete", "list"}

func (k Kind) String() string { return kindNames[k] }

// Op is one request against a Store, as a value: what a Layer is handed,
// and — once Do has issued it — its result.
type Op struct {
	Kind   Kind
	Key    string   // the prefix, for a list
	Off, N int64    // of a getrange
	Data   []byte   // a put's payload going in; a get's or getrange's bytes coming back
	Size   int64    // head's result
	Keys   []string // list's result
}

// String names the request: "get k", "getrange k [off,+n)".
func (op Op) String() string {
	if op.Kind == KindGetRange {
		return fmt.Sprintf("getrange %s [%d,+%d)", op.Key, op.Off, op.N)
	}
	return op.Kind.String() + " " + op.Key
}

// Do issues op against s and returns it with its result filled in. It is
// the one switch from a request value to the six methods.
func Do(s Store, op Op) (Op, error) {
	var err error
	switch op.Kind {
	case KindPut:
		err = s.Put(op.Key, op.Data)
	case KindGet:
		op.Data, err = s.Get(op.Key)
	case KindGetRange:
		op.Data, err = s.GetRange(op.Key, op.Off, op.N)
	case KindHead:
		op.Size, err = s.Head(op.Key)
	case KindDelete:
		err = s.Delete(op.Key)
	case KindList:
		op.Keys, err = s.List(op.Key)
	default:
		panic(fmt.Sprintf("oss: Do of unknown kind %d", op.Kind))
	}
	return op, err
}

// Layer is the one interposition point on a Store: every request to a
// store built by With passes through Do, whatever its kind, and reaches
// the store beneath only as Do(next, op). The package comment has what a
// layer may and must not do. The op travels by value, so a request through
// any number of layers allocates nothing of its own.
type Layer interface {
	Do(op Op, next Store) (Op, error)
}

// With returns base seen through layers, the first outermost; with none
// it is base itself.
func With(base Store, layers ...Layer) Store {
	for i := len(layers) - 1; i >= 0; i-- {
		base = &chain{layers[i], base}
	}
	return base
}

// chain is one layer over the store beneath it: the only Store outside
// the back ends that spells out the six methods.
type chain struct {
	layer Layer
	next  Store
}

func (c *chain) Put(key string, data []byte) error {
	_, err := c.layer.Do(Op{Kind: KindPut, Key: key, Data: data}, c.next)
	return err
}

func (c *chain) Get(key string) ([]byte, error) {
	op, err := c.layer.Do(Op{Kind: KindGet, Key: key}, c.next)
	return op.Data, err
}

func (c *chain) GetRange(key string, off, n int64) ([]byte, error) {
	op, err := c.layer.Do(Op{Kind: KindGetRange, Key: key, Off: off, N: n}, c.next)
	return op.Data, err
}

func (c *chain) Head(key string) (int64, error) {
	op, err := c.layer.Do(Op{Kind: KindHead, Key: key}, c.next)
	return op.Size, err
}

func (c *chain) Delete(key string) error {
	_, err := c.layer.Do(Op{Kind: KindDelete, Key: key}, c.next)
	return err
}

func (c *chain) List(prefix string) ([]string, error) {
	op, err := c.layer.Do(Op{Kind: KindList, Key: prefix}, c.next)
	return op.Keys, err
}
