// lockorder enforces the documented acyclic lock hierarchy (DESIGN.md
// §7–8):
//
//	maintMu  →  FileLocks stripes  →  ContainerLocks stripes  →  leaf mutexes
//
// Within every function body it tracks which families are held at each
// acquisition (branch-sensitively: if/switch arms are walked separately
// and merged by intersection, so a lock released on one arm is not
// assumed held afterwards) and flags:
//
//   - an acquisition of a family that ranks above a family already held
//     (e.g. FileLocks.Lock while a ContainerLocks stripe is held);
//   - the same transitively through the whole-program call graph:
//     holding X and calling anything — across packages, through
//     interface methods resolved to every concrete implementation the
//     program declares — that acquires something above X, bounded at
//     maxSummaryDepth frames. Findings carry the call chain
//     ("calls a → b, which acquires …"). Acquisitions under `go`
//     statements are excluded from summaries: a spawned goroutine does
//     not run under the caller's held set;
//   - re-acquiring the exact same mutex expression already held
//     (self-deadlock on sync.Mutex / the write side of sync.RWMutex);
//   - a Lock with no reachable Unlock: no direct call, no defer, no
//     release inside a function literal (the returned-release-closure
//     pattern of FileLocks.LockAll / ContainerLocks.Pin), and the
//     release func neither called, deferred, nor escaping via return.
//
// Families are matched structurally, not by import path, so fixture
// packages exercise the same rules: a method call on a named type
// FileLocks / ContainerLocks, a sync.Mutex or sync.RWMutex field named
// maintMu, and any other sync mutex as a leaf.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type lockFamily int

const (
	famMaint     lockFamily = iota // G-node maintenance mutex: top of the order
	famFile                        // core.FileLocks stripes
	famContainer                   // core.ContainerLocks stripes
	famLeaf                        // every other sync.Mutex / sync.RWMutex
)

func (f lockFamily) String() string {
	switch f {
	case famMaint:
		return "maintMu"
	case famFile:
		return "FileLocks"
	case famContainer:
		return "ContainerLocks"
	}
	return "leaf mutex"
}

// lockEvent classifies one lock-related call.
type lockEvent struct {
	family  lockFamily
	key     string // rendered receiver expr, e.g. "g.repo.Files"
	method  string // Lock, RLock, Unlock, RUnlock, Pin, LockAll
	acquire bool
	// releaseFunc marks acquire-returning-release calls (Pin, LockAll):
	// the unlock travels through the returned closure.
	releaseFunc bool
	pos         token.Pos
}

func lockOrderAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "lock acquisitions must follow maintMu → FileLocks → ContainerLocks → leaves, and every Lock needs a reachable Unlock",
		Run:  runLockOrder,
	}
}

// classifyLockCall decides whether call is a lock operation and on which
// family. Returns nil for anything else.
func classifyLockCall(p *Package, call *ast.CallExpr) *lockEvent {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	m := sel.Sel.Name
	switch m {
	case "Lock", "RLock", "Unlock", "RUnlock", "Pin", "LockAll":
	default:
		return nil
	}
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	named := namedRecv(s.Recv())
	if named == nil {
		return nil
	}
	ev := &lockEvent{method: m, key: types.ExprString(sel.X), pos: call.Pos()}
	switch {
	case named.Obj().Name() == "FileLocks":
		ev.family = famFile
	case named.Obj().Name() == "ContainerLocks":
		ev.family = famContainer
	case isSyncMutex(named):
		if terminalFieldName(sel.X) == "maintMu" {
			ev.family = famMaint
		} else {
			ev.family = famLeaf
		}
	default:
		return nil
	}
	switch m {
	case "Lock", "RLock":
		ev.acquire = true
	case "Pin", "LockAll":
		if ev.family == famLeaf || ev.family == famMaint {
			return nil // Pin/LockAll only exist on the striped tables
		}
		ev.acquire = true
		ev.releaseFunc = true
	}
	return ev
}

func isSyncMutex(n *types.Named) bool {
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// terminalFieldName returns the last identifier of a selector chain
// ("g.repo.maintMu" → "maintMu", bare "maintMu" → itself).
func terminalFieldName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// transAcquire is one lock acquisition reachable from a function:
// family/key plus the call path (below the summarized function) leading
// to the function that performs it. An empty chain means the function
// acquires directly.
type transAcquire struct {
	family lockFamily
	key    string
	chain  []*types.Func
}

// lockSummary is the transitive acquisition summary of one function.
type lockSummary struct {
	acquires []transAcquire
}

// lockSummaryOf computes (memoized, cycle-guarded, depth-bounded) the
// lock families fn can acquire synchronously — directly or through
// callees resolved by the call graph. A call that classifies as a lock
// operation is recorded as the event itself; its implementation's body
// is not entered (FileLocks.Lock's internal stripe mutexes are the
// abstraction's business, not the caller's). Calls spawned by `go` are
// excluded: they do not run under the caller's held set.
func (pr *program) lockSummaryOf(fn *types.Func, depth int) *lockSummary {
	if sum, ok := pr.lockSums[fn]; ok {
		return sum
	}
	if depth > maxSummaryDepth || pr.lockActive[fn] {
		return &lockSummary{}
	}
	node := pr.graph.nodeFor(fn)
	if node == nil {
		return &lockSummary{} // out-of-program, or no body
	}
	pr.lockActive[fn] = true
	sum := &lockSummary{}
	seen := map[string]bool{}
	add := func(a transAcquire) {
		k := fmt.Sprintf("%d|%s", a.family, a.key)
		if !seen[k] {
			seen[k] = true
			sum.acquires = append(sum.acquires, a)
		}
	}
	asyncCalls := map[*ast.CallExpr]bool{}
	inspectShallow(node.decl.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			asyncCalls[gs.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || asyncCalls[call] {
			return true
		}
		if ev := classifyLockCall(node.pkg, call); ev != nil {
			if ev.acquire {
				add(transAcquire{family: ev.family, key: ev.key})
			}
			return true
		}
		for _, callee := range pr.graph.resolveCall(node.pkg, call) {
			for _, a := range pr.lockSummaryOf(callee, depth+1).acquires {
				add(transAcquire{
					family: a.family,
					key:    a.key,
					chain:  append([]*types.Func{callee}, a.chain...),
				})
			}
		}
		return true
	})
	delete(pr.lockActive, fn)
	pr.lockSums[fn] = sum
	return sum
}

// heldLock is one entry of the walker's held set.
type heldLock struct {
	family lockFamily
	key    string
	method string // Lock vs RLock, for the self-deadlock check
}

// lockWalker carries per-function analysis state.
type lockWalker struct {
	p        *Package
	pr       *program
	findings *[]Finding
	reported map[string]bool // (pos, families, held key) dedupe across fan-out

	// Whole-body bookkeeping for the missing-unlock check.
	acquired     map[string]token.Pos // key → first acquire position
	acquiredFam  map[string]lockFamily
	released     map[string]bool   // key saw Unlock/RUnlock (any path, incl. closures)
	releaseVars  map[string]string // release-func variable name → lock key
	releaseCalls map[string]bool   // lock key → release func invoked/deferred/escaped
}

// runLockOrder runs the body walker over every function in p. Call
// sites resolve through the whole-program call graph to transitive,
// cross-package summaries.
func runLockOrder(pr *program, p *Package) []Finding {
	var findings []Finding
	for _, f := range p.Files {
		for _, fb := range fileFuncBodies(f) {
			w := &lockWalker{
				p:            p,
				pr:           pr,
				findings:     &findings,
				reported:     map[string]bool{},
				acquired:     map[string]token.Pos{},
				acquiredFam:  map[string]lockFamily{},
				released:     map[string]bool{},
				releaseVars:  map[string]string{},
				releaseCalls: map[string]bool{},
			}
			w.walkStmts(fb.body.List, &[]heldLock{})
			w.reportLeaks(fb)
		}
	}
	return findings
}

// chainString renders a call path for a finding, package-qualifying
// functions declared outside the reported package.
func (w *lockWalker) chainString(chain []*types.Func) string {
	parts := make([]string, len(chain))
	for i, fn := range chain {
		parts[i] = displayName(fn, w.p)
	}
	return strings.Join(parts, " → ")
}

// lockMethodNames are the lock-table method names; a method with one of
// these names on a receiver IS the lock abstraction, so its body is
// exempt from the leak check (the paired release is the sibling method or
// the returned closure).
var lockMethodNames = map[string]bool{
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
	"Pin": true, "LockAll": true,
}

// reportLeaks flags locks acquired somewhere in the body with no release
// on any path. Releases inside nested function literals count (that is
// the returned-release-closure pattern of LockAll/Pin), as does handing
// the release func to the caller via return. Bodies that implement a
// lock-table method (FileLocks.Lock et al.) are exempt: the paired
// release is by design in a sibling method.
func (w *lockWalker) reportLeaks(fb funcBody) {
	if fb.decl != nil && fb.decl.Recv != nil && lockMethodNames[fb.decl.Name.Name] {
		return
	}
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.scanClosureReleases(fl)
			return false
		}
		return true
	})
	for key, pos := range w.acquired {
		if w.released[key] || w.releaseCalls[key] {
			continue
		}
		*w.findings = append(*w.findings, w.p.finding("lockorder", pos,
			"%s on %s has no reachable Unlock on any path (no direct call, defer, or release-closure use)",
			w.acquiredFam[key], key))
	}
}

// walkStmts processes a statement list in order, threading the held set.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held *[]heldLock) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func copyHeld(h []heldLock) *[]heldLock {
	c := append([]heldLock(nil), h...)
	return &c
}

// intersectHeld keeps only locks held on every branch.
func intersectHeld(branches ...[]heldLock) []heldLock {
	if len(branches) == 0 {
		return nil
	}
	out := branches[0]
	for _, b := range branches[1:] {
		var next []heldLock
		for _, l := range out {
			for _, m := range b {
				if l.key == m.key && l.method == m.method {
					next = append(next, l)
					break
				}
			}
		}
		out = next
	}
	return out
}

func (w *lockWalker) walkStmt(s ast.Stmt, held *[]heldLock) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		w.scanExpr(st.Cond, held)
		b1 := copyHeld(*held)
		w.walkStmt(st.Body, b1)
		b2 := copyHeld(*held)
		if st.Else != nil {
			w.walkStmt(st.Else, b2)
		}
		*held = intersectHeld(*b1, *b2)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			w.scanExpr(st.Cond, held)
		}
		body := copyHeld(*held)
		w.walkStmt(st.Body, body)
		if st.Post != nil {
			w.walkStmt(st.Post, body)
		}
		// Assume balanced loop bodies; the leak check still catches an
		// acquire with no release anywhere.
	case *ast.RangeStmt:
		w.scanExpr(st.X, held)
		body := copyHeld(*held)
		w.walkStmt(st.Body, body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag, held)
		}
		w.walkCaseBodies(st.Body, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, held)
		}
		w.walkCaseBodies(st.Body, held)
	case *ast.SelectStmt:
		w.walkCaseBodies(st.Body, held)
	case *ast.DeferStmt:
		w.handleDefer(st, held)
	case *ast.GoStmt:
		// The goroutine body is analyzed as an independent funcBody; its
		// argument expressions evaluate here.
		for _, a := range st.Call.Args {
			w.scanExpr(a, held)
		}
	case *ast.AssignStmt:
		w.handleAssign(st, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			// Returning the release func (or a closure that releases)
			// hands the obligation to the caller.
			if id, ok := ast.Unparen(r).(*ast.Ident); ok {
				if key, ok := w.releaseVars[id.Name]; ok {
					w.releaseCalls[key] = true
				}
			}
			w.scanExpr(r, held)
		}
	case *ast.ExprStmt:
		w.scanExpr(st.X, held)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, held)
	default:
		inspectShallow(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				w.handleCall(call, held)
				return false
			}
			return true
		})
	}
}

func (w *lockWalker) walkCaseBodies(body *ast.BlockStmt, held *[]heldLock) {
	var results [][]heldLock
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				w.walkStmt(cc.Comm, copyHeld(*held))
			}
			stmts = cc.Body
		}
		b := copyHeld(*held)
		w.walkStmts(stmts, b)
		results = append(results, *b)
	}
	if !hasDefault {
		results = append(results, *held) // fall-through path
	}
	if len(results) > 0 {
		*held = intersectHeld(results...)
	}
}

// handleDefer processes `defer X.Unlock()` / `defer release()` /
// `defer func(){...}()`. A deferred unlock counts as a release for the
// leak check but the lock stays held for ordering purposes (it is held
// until function exit).
func (w *lockWalker) handleDefer(st *ast.DeferStmt, held *[]heldLock) {
	if ev := classifyLockCall(w.p, st.Call); ev != nil {
		if !ev.acquire {
			w.released[ev.key] = true
		} else {
			// `defer mu.Lock()` is almost certainly a typo'd unlock.
			*w.findings = append(*w.findings, w.p.finding("lockorder", st.Pos(),
				"deferred %s on %s acquires at function exit — did you mean Unlock?", ev.method, ev.key))
		}
		return
	}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.Ident:
		if key, ok := w.releaseVars[fun.Name]; ok {
			w.releaseCalls[key] = true
			return
		}
	case *ast.FuncLit:
		// Releases inside the deferred closure count via the closure scan
		// in scanClosureReleases (fileFuncBodies analyzes its order
		// independently).
		w.scanClosureReleases(fun)
		return
	}
	for _, a := range st.Call.Args {
		w.scanExpr(a, held)
	}
}

// scanClosureReleases records Unlock/RUnlock and release-var calls found
// inside a nested function literal of the current body. It deliberately
// records releases only — acquisitions inside the literal are checked
// when the literal is analyzed as its own body.
func (w *lockWalker) scanClosureReleases(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ev := classifyLockCall(w.p, call); ev != nil && !ev.acquire {
			w.released[ev.key] = true
		} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if key, ok := w.releaseVars[id.Name]; ok {
				w.releaseCalls[key] = true
			}
		}
		return true
	})
}

// handleAssign tracks `release := l.Pin(ids)` style bindings, then scans
// both sides for lock calls.
func (w *lockWalker) handleAssign(st *ast.AssignStmt, held *[]heldLock) {
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if ev := classifyLockCall(w.p, call); ev != nil && ev.releaseFunc {
				w.handleCall(call, held)
				if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					w.releaseVars[id.Name] = ev.key
				} else {
					// Release func discarded: certain leak.
					*w.findings = append(*w.findings, w.p.finding("lockorder", st.Pos(),
						"release func of %s on %s is discarded — the stripes can never be unlocked", ev.method, ev.key))
					w.releaseCalls[ev.key] = true // don't double-report as a leak
				}
				return
			}
		}
	}
	for _, e := range st.Rhs {
		w.scanExpr(e, held)
	}
}

// scanExpr finds lock calls and plain calls inside an expression,
// left-to-right, without entering function literals.
func (w *lockWalker) scanExpr(e ast.Expr, held *[]heldLock) {
	if e == nil {
		return
	}
	inspectShallow(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.handleCall(call, held)
			return false
		}
		return true
	})
}

// handleCall is the core transition: classify the call, check ordering,
// update the held set, and apply the one-level call-graph check for
// sibling functions. Nested call arguments are scanned first (they
// evaluate before the outer call).
func (w *lockWalker) handleCall(call *ast.CallExpr, held *[]heldLock) {
	for _, a := range call.Args {
		w.scanExpr(a, held)
	}
	if ev := classifyLockCall(w.p, call); ev != nil {
		w.applyEvent(ev, held)
		return
	}
	// Release-func variable invoked directly: release := Pin(...); release().
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if key, ok := w.releaseVars[id.Name]; ok {
			w.releaseCalls[key] = true
			removeHeld(held, key)
			return
		}
	}
	// Call-graph check: calling anything that (transitively) acquires
	// above a held family is the same inversion, one or more frames
	// removed. Fan-out through interface methods can surface the same
	// family via several chains; report each (site, family pair, held
	// key) once, with the first chain found.
	for _, callee := range w.pr.graph.resolveCall(w.p, call) {
		for _, a := range w.pr.lockSummaryOf(callee, 0).acquires {
			for _, h := range *held {
				if a.family >= h.family {
					continue
				}
				dedupe := fmt.Sprintf("%d|%d|%d|%s", call.Pos(), a.family, h.family, h.key)
				if w.reported[dedupe] {
					continue
				}
				w.reported[dedupe] = true
				chain := append([]*types.Func{callee}, a.chain...)
				*w.findings = append(*w.findings, w.p.finding("lockorder", call.Pos(),
					"calls %s, which acquires %s (%s) while %s (%s) is held — violates maintMu → FileLocks → ContainerLocks → leaves",
					w.chainString(chain), a.family, a.key, h.family, h.key))
			}
		}
	}
	// Evaluate the receiver/base expression too (method chains).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X, held)
	}
}

func (w *lockWalker) applyEvent(ev *lockEvent, held *[]heldLock) {
	if ev.acquire {
		for _, h := range *held {
			if ev.family < h.family {
				*w.findings = append(*w.findings, w.p.finding("lockorder", ev.pos,
					"acquires %s (%s) while %s (%s) is held — violates maintMu → FileLocks → ContainerLocks → leaves",
					ev.family, ev.key, h.family, h.key))
			}
			// Self-deadlock: re-locking the same mutex expression. Only
			// exact write-lock repeats on plain mutexes are certain; the
			// striped tables take per-ID stripes, so same-receiver repeats
			// there are routine.
			if (ev.family == famLeaf || ev.family == famMaint) &&
				h.key == ev.key && ev.method == "Lock" && h.method == "Lock" {
				*w.findings = append(*w.findings, w.p.finding("lockorder", ev.pos,
					"re-acquires %s already held on this path — self-deadlock", ev.key))
			}
		}
		if _, seen := w.acquired[ev.key]; !seen {
			w.acquired[ev.key] = ev.pos
			w.acquiredFam[ev.key] = ev.family
		}
		*held = append(*held, heldLock{family: ev.family, key: ev.key, method: ev.method})
		if ev.releaseFunc {
			// The paired release is the returned closure; tracked via
			// releaseVars at the assignment site.
		}
	} else {
		w.released[ev.key] = true
		removeHeld(held, ev.key)
	}
}

// removeHeld drops the most recent held entry for key.
func removeHeld(held *[]heldLock, key string) {
	h := *held
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].key == key {
			*held = append(h[:i], h[i+1:]...)
			return
		}
	}
}
