package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// WireImmut enforces the zero-copy wire path's immutability contract
// (internal/ndn package docs, docs/CONTRACTS.md §3):
//
//   - The byte slices exposed by decoded packets — Interest.AppParams,
//     Data.Content, Data.SigValue, Packet.Wire(), and the slice returned by
//     Encode — are views into a frame shared by every receiver of the
//     broadcast. Writing through them corrupts the packet for everyone.
//   - A packet that has been encoded, digest-signed (SignDigest caches the
//     signed wire) or decoded caches its wire form. Mutating its fields
//     afterwards without calling InvalidateWire (or Sign, which invalidates
//     internally) silently re-broadcasts the stale cached bytes.
var WireImmut = &Analyzer{
	Name: "wireimmut",
	Doc: "Slices returned by DecodeInterest/DecodeData/Packet accessors are " +
		"read-only views into the shared frame, and encoded/decoded packets " +
		"must not have fields reassigned without InvalidateWire.",
	Run: runWireImmut,
}

const ndnPath = "dapes/internal/ndn"

// viewFields maps packet type name -> fields that alias the wire frame.
var viewFields = map[string]map[string]bool{
	"Interest": {"AppParams": true},
	"Data":     {"Content": true, "SigValue": true},
}

func runWireImmut(pass *Pass) error {
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			var body *ast.BlockStmt
			switch f := n.(type) {
			case *ast.FuncDecl:
				body = f.Body
			case *ast.FuncLit:
				// Nested function literals are visited when their parent
				// FuncDecl is analyzed (checkFuncBody walks the whole body);
				// only analyze top-level literals (package var initializers).
				if enclosingFuncBody(stack) != nil {
					return true
				}
				body = f.Body
			default:
				return true
			}
			if body != nil {
				checkFuncBody(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkFuncBody runs both wire-immutability checks over one function body.
// The analysis is position-ordered and flow-insensitive: within a body,
// source order approximates execution order closely enough for a linter, and
// //lint:ignore covers the exceptions.
func checkFuncBody(pass *Pass, body *ast.BlockStmt) {
	views := collectViewAliases(pass, body)
	checkViewWrites(pass, body, views)
	checkStaleWireWrites(pass, body)
}

// collectViewAliases finds local variables initialized (or reassigned) from
// a frame-view expression, e.g. `c := d.Content` or `w := pkt.Wire()`.
func collectViewAliases(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	views := map[types.Object]bool{}
	// Two passes so an alias-of-alias (`v := d.Content; w := v`) resolves
	// regardless of visitation order within nested blocks.
	for i := 0; i < 2; i++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for j, rhs := range as.Rhs {
				if !isViewExpr(pass, rhs, views) {
					continue
				}
				if id, ok := as.Lhs[j].(*ast.Ident); ok {
					if obj := identObject(pass, id); obj != nil {
						views[obj] = true
					}
				}
			}
			return true
		})
	}
	return views
}

// isViewExpr reports whether expr evaluates to a byte slice aliasing a
// packet's wire frame: a view field selector, a Wire()/Encode() call, a
// slice of a view, or a known view alias.
func isViewExpr(pass *Pass, expr ast.Expr, views map[types.Object]bool) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := identObject(pass, e)
		return obj != nil && views[obj]
	case *ast.SelectorExpr:
		return isViewFieldSel(pass, e)
	case *ast.SliceExpr:
		return isViewExpr(pass, e.X, views)
	case *ast.ParenExpr:
		return isViewExpr(pass, e.X, views)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == ndnPath &&
				(fn.Name() == "Wire" || fn.Name() == "Encode") {
				return true
			}
		}
	}
	return false
}

// isViewFieldSel reports whether sel is Interest.AppParams, Data.Content, or
// Data.SigValue.
func isViewFieldSel(pass *Pass, sel *ast.SelectorExpr) bool {
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != ndnPath {
		return false
	}
	fields, ok := viewFields[named.Obj().Name()]
	return ok && fields[sel.Sel.Name]
}

// checkViewWrites flags writes through frame views: index assignment, copy
// into, and append onto a view (append can write into the shared frame's
// spare capacity before reallocating).
func checkViewWrites(pass *Pass, body *ast.BlockStmt, views map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if isViewExpr(pass, ix.X, views) {
					pass.Reportf(lhs.Pos(),
						"write through %s: it is a read-only view into the shared wire frame (every receiver of the broadcast sees the mutation); copy the bytes first",
						exprString(ix.X))
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "copy":
						if isViewExpr(pass, n.Args[0], views) {
							pass.Reportf(n.Pos(),
								"copy into %s: it is a read-only view into the shared wire frame; copy the bytes out, not in",
								exprString(n.Args[0]))
						}
					case "append":
						if isViewExpr(pass, n.Args[0], views) {
							pass.Reportf(n.Pos(),
								"append to %s: it can write into the shared wire frame's spare capacity; build a fresh slice instead",
								exprString(n.Args[0]))
						}
					}
				}
			}
		}
		return true
	})
}

// wireEvent is one packet-variable lifecycle event inside a function body,
// ordered by source position.
type wireEvent struct {
	pos  token.Pos
	kind int // 0 = wire cached (Encode / SignDigest / decode init), 1 = cache dropped (InvalidateWire/Sign), 2 = field write
	node ast.Node
	name string // field name for writes
}

// checkStaleWireWrites flags field assignments on an *ndn.Interest or
// *ndn.Data variable whose wire form is cached at that point: after the
// variable was returned by DecodeInterest/DecodeData/Packet.Interest/
// Packet.Data, or after Encode or SignDigest was called on it, with no
// intervening InvalidateWire/Sign.
func checkStaleWireWrites(pass *Pass, body *ast.BlockStmt) {
	events := map[types.Object][]wireEvent{}
	add := func(obj types.Object, ev wireEvent) {
		events[obj] = append(events[obj], ev)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) > len(n.Rhs) && len(n.Rhs) == 1 {
				// v, err := DecodeInterest(wire)
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isDecodeCall(pass, call) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := identObject(pass, id); obj != nil {
							add(obj, wireEvent{pos: n.Pos(), kind: 0})
						}
					}
				}
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || len(n.Lhs) != len(n.Rhs) {
					break
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isDecodeCall(pass, call) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := identObject(pass, id); obj != nil {
						add(obj, wireEvent{pos: n.Pos(), kind: 0})
					}
				}
			}
			// Field writes: v.Name = ..., v.Nonce = ...
			for _, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				base, ok := sel.X.(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObject(pass, base)
				if obj == nil || !isPacketVar(obj) {
					continue
				}
				add(obj, wireEvent{pos: lhs.Pos(), kind: 2, node: lhs, name: sel.Sel.Name})
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			obj := identObject(pass, base)
			if obj == nil || !isPacketVar(obj) {
				return true
			}
			switch sel.Sel.Name {
			case "Encode", "SignDigest":
				add(obj, wireEvent{pos: n.Pos(), kind: 0})
			case "InvalidateWire", "Sign":
				add(obj, wireEvent{pos: n.Pos(), kind: 1})
			}
		}
		return true
	})

	for _, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		cached := false
		for _, ev := range evs {
			switch ev.kind {
			case 0:
				cached = true
			case 1:
				cached = false
			case 2:
				if cached {
					pass.Reportf(ev.pos,
						"field write %s after the packet's wire form was cached (Encode/decode): the stale bytes would be re-sent; call InvalidateWire first or build a fresh packet",
						exprString(ev.node.(ast.Expr)))
				}
			}
		}
	}
}

// isDecodeCall reports whether the call returns a packet with its wire form
// already cached: ndn.DecodeInterest, ndn.DecodeData, Packet.Interest,
// Packet.Data.
func isDecodeCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != ndnPath {
		return false
	}
	switch fn.Name() {
	case "DecodeInterest", "DecodeData":
		return true
	case "Interest", "Data":
		// Methods on *Packet (the lazy shared decode), not fields.
		return fn.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// isPacketVar reports whether the object is a variable of type
// *ndn.Interest / *ndn.Data (or their value forms).
func isPacketVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	named := namedOf(v.Type())
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != ndnPath {
		return false
	}
	switch named.Obj().Name() {
	case "Interest", "Data":
		return true
	}
	return false
}

// identObject resolves an identifier to its object via Uses or Defs.
func identObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
