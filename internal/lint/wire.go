package lint

import (
	"go/ast"
	"go/types"
)

// checkWire guards the protocol encoders. A dropped error from
// binary.Write/binary.Read or an io.Writer means a short or failed
// write silently corrupts the byte stream — for IPFIX that is a
// malformed message the collector may not even detect.
func checkWire(_ *Program, scope []*Package, report ReportFunc) {
	for _, p := range scope {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						checkDroppedWrite(p, call, report)
					}
				case *ast.AssignStmt:
					if allBlank(n.Lhs) && len(n.Rhs) == 1 {
						if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
							checkDroppedWrite(p, call, report)
						}
					}
				}
				return true
			})
		}
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// checkDroppedWrite flags a call whose error result is discarded when
// the callee is binary.Write/Read or an io.Writer-shaped Write
// method. *bytes.Buffer and *strings.Builder writes are exempt: both
// document that the returned error is always nil.
func checkDroppedWrite(p *Package, call *ast.CallExpr, report ReportFunc) {
	if pkg, name := calleePkgFunc(p, call); pkg == "encoding/binary" && (name == "Write" || name == "Read") {
		report(call.Pos(), "binary.%s error discarded; a failed %s leaves the stream corrupt", name, name)
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Write" {
		return
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isWriterSignature(sig) {
		return
	}
	if recv := sig.Recv().Type(); isPointerTo(recv, "bytes", "Buffer") || isPointerTo(recv, "strings", "Builder") {
		return
	}
	report(call.Pos(), "%s.Write error discarded; check n and err or the encoded message may be truncated", types.ExprString(sel.X))
}

// isWriterSignature matches func([]byte) (int, error).
func isWriterSignature(sig *types.Signature) bool {
	params, results := sig.Params(), sig.Results()
	if params.Len() != 1 || results.Len() != 2 {
		return false
	}
	slice, ok := params.At(0).Type().Underlying().(*types.Slice)
	if !ok || !isBasicKind(slice.Elem(), types.Byte) {
		return false
	}
	if !isBasicKind(results.At(0).Type(), types.Int) {
		return false
	}
	named, ok := results.At(1).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func isBasicKind(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isPointerTo(t types.Type, pkg, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name
}
