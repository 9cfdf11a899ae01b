package oss

import "strings"

// Prefixed namespaces a Store under a fixed key prefix, isolating tenants
// on one physical object store (the paper's global index is per user; one
// bucket-per-user deployment maps to one Prefixed view per user).
type Prefixed struct {
	Store  // inner seen through Do
	prefix string
}

// NewPrefixed wraps inner under prefix (a trailing "/" is added if
// missing). An empty prefix returns a pass-through view.
func NewPrefixed(inner Store, prefix string) *Prefixed {
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	p := &Prefixed{prefix: prefix}
	p.Store = With(inner, p)
	return p
}

// Do implements Layer: the key (a list's prefix) goes down prefixed, and
// a list's keys come back without it.
func (p *Prefixed) Do(op Op, next Store) (Op, error) {
	op.Key = p.prefix + op.Key
	op, err := Do(next, op)
	if err != nil || op.Kind != KindList {
		return op, err
	}
	out := make([]string, 0, len(op.Keys))
	for _, k := range op.Keys {
		out = append(out, strings.TrimPrefix(k, p.prefix))
	}
	op.Keys = out
	return op, nil
}
