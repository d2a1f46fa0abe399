// Package wireexhaustive enforces the sealed wire.Message contract.
//
// The wire package seals its Message interface with an unexported
// method, so the full set of implementations is known statically. That
// makes two properties checkable at vet time that today only a
// round-trip test approximates:
//
//  1. Registration: in the package declaring a sealed interface with an
//     opcode method (`Op() <named integer>`), every implementation must
//     return a distinct opcode constant, and the package's decode
//     switch over the opcode type must have a case for that constant
//     which constructs that implementation. A message type added
//     without a decode case would marshal but never unmarshal — invisible
//     on the simulated fabric (which passes structs by reference) and
//     fatal on the TCP transport.
//
//  2. Exhaustiveness: a type switch over a sealed interface from this
//     module, in any non-test file of any package, must either carry a
//     default case or list every implementation. Without it, a new
//     message silently falls through dispatch. (Test doubles dispatch
//     on just the messages their test exchanges, so _test.go files are
//     exempt.)
//
// Interface-typed cases count as covering every implementation that
// satisfies them; `case nil` is ignored.
package wireexhaustive

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"ramcloud/internal/analysis/framework"
	"ramcloud/internal/analysis/scope"
)

// Analyzer is the wireexhaustive check.
var Analyzer = &framework.Analyzer{
	Name: "wireexhaustive",
	Doc:  "enforce decode coverage and exhaustive type switches for sealed wire messages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	checkSealedDecls(pass)
	checkTypeSwitches(pass)
	return nil
}

// sealed reports whether iface can only be implemented inside its
// declaring package (it has an unexported method).
func sealed(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if !iface.Method(i).Exported() {
			return true
		}
	}
	return false
}

// opcodeType returns the named integer type of the interface's
// `Op() T` method, or nil if it has none.
func opcodeType(iface *types.Interface) *types.Named {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Op" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return nil
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		if !ok {
			return nil
		}
		if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			return nil
		}
		return named
	}
	return nil
}

// implementations lists the named non-interface types in scope whose
// value or pointer satisfies iface, in declaration-name order.
func implementations(scope *types.Scope, iface *types.Interface) []*types.Named {
	var impls []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if ok && !tn.IsAlias() {
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				impls = append(impls, named)
			}
		}
	}
	return impls
}

// checkSealedDecls runs the registration checks in packages that
// declare a sealed opcode-carrying interface.
func checkSealedDecls(pass *framework.Pass) {
	for _, name := range pass.Pkg.Scope().Names() {
		tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !sealed(iface) {
			continue
		}
		opType := opcodeType(iface)
		if opType == nil {
			continue
		}
		checkRegistration(pass, iface, opType)
	}
}

func checkRegistration(pass *framework.Pass, iface *types.Interface, opType *types.Named) {
	impls := implementations(pass.Pkg.Scope(), iface)
	if len(impls) == 0 {
		return
	}
	decodeCases := decodeSwitchCases(pass, opType)

	byOpcode := map[string]*types.Named{}
	for _, impl := range impls {
		val := opcodeValue(pass, impl)
		if val == nil {
			pass.Reportf(implPos(pass, impl), "%s.Op does not return a single opcode constant; the decode switch cannot be checked against it", impl.Obj().Name())
			continue
		}
		key := val.ExactString()
		if prev, dup := byOpcode[key]; dup {
			pass.Reportf(implPos(pass, impl), "%s and %s return the same opcode (%s); opcodes must be unique so decode is unambiguous", impl.Obj().Name(), prev.Obj().Name(), key)
		} else {
			byOpcode[key] = impl
		}

		clause, ok := decodeCases[key]
		if !ok {
			pass.Reportf(implPos(pass, impl), "%s has no case in the decode switch over %s; it would marshal but never unmarshal", impl.Obj().Name(), opType.Obj().Name())
			continue
		}
		if !constructsType(pass, clause, impl) {
			pass.Reportf(implPos(pass, impl), "the decode case for %s's opcode does not construct %s", impl.Obj().Name(), impl.Obj().Name())
		}
	}
}

// decodeSwitchCases maps each opcode constant (by exact value) to the
// case clause handling it, across every switch over the opcode type in
// the package.
func decodeSwitchCases(pass *framework.Pass, opType *types.Named) map[string]*ast.CaseClause {
	cases := map[string]*ast.CaseClause{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.TypesInfo.Types[sw.Tag].Type
			if tagType == nil || !types.Identical(tagType, opType) {
				return true
			}
			for _, stmt := range sw.Body.List {
				clause := stmt.(*ast.CaseClause)
				for _, expr := range clause.List {
					if v := pass.TypesInfo.Types[expr].Value; v != nil {
						cases[v.ExactString()] = clause
					}
				}
			}
			return true
		})
	}
	return cases
}

// opcodeValue extracts the constant returned by impl's Op method, by
// reading the method body (export data does not carry bodies, but the
// registration check only runs in the declaring package).
func opcodeValue(pass *framework.Pass, impl *types.Named) constant.Value {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Op" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recvType := pass.TypesInfo.Defs[fd.Name].(*types.Func).Signature().Recv().Type()
			if p, ok := recvType.(*types.Pointer); ok {
				recvType = p.Elem()
			}
			named, ok := recvType.(*types.Named)
			if !ok || named.Obj() != impl.Obj() {
				continue
			}
			if len(fd.Body.List) != 1 {
				return nil
			}
			ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return nil
			}
			return pass.TypesInfo.Types[ret.Results[0]].Value
		}
	}
	return nil
}

// constructsType reports whether the clause body contains a composite
// literal of the implementation type.
func constructsType(pass *framework.Pass, clause *ast.CaseClause, impl *types.Named) bool {
	found := false
	for _, stmt := range clause.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return !found
			}
			t := pass.TypesInfo.Types[lit].Type
			if named, ok := t.(*types.Named); ok && named.Obj() == impl.Obj() {
				found = true
			}
			return !found
		})
	}
	return found
}

func implPos(pass *framework.Pass, impl *types.Named) token.Pos {
	if pos := impl.Obj().Pos(); pos.IsValid() {
		return pos
	}
	return pass.Files[0].Pos()
}

// checkTypeSwitches enforces exhaustiveness on type switches over
// sealed module interfaces, in whatever package they appear. Test files
// are exempt: fakes legitimately dispatch on the few messages their
// test exchanges.
func checkTypeSwitches(pass *framework.Pass) {
	for _, f := range pass.Files {
		if scope.TestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			iface, named := switchSubject(pass, sw)
			if iface == nil || !sealed(iface) || !strings.HasPrefix(named.Obj().Pkg().Path(), "ramcloud/") {
				return true
			}

			impls := implementations(named.Obj().Pkg().Scope(), iface)
			covered := map[*types.TypeName]bool{}
			for _, stmt := range sw.Body.List {
				clause := stmt.(*ast.CaseClause)
				if clause.List == nil {
					return true // default case handles the remainder
				}
				for _, expr := range clause.List {
					tv := pass.TypesInfo.Types[expr]
					if tv.IsNil() || tv.Type == nil {
						continue
					}
					t := tv.Type
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if caseNamed, ok := t.(*types.Named); ok {
						if caseIface, ok := caseNamed.Underlying().(*types.Interface); ok {
							// An interface case covers everything satisfying it.
							for _, impl := range impls {
								if types.Implements(impl, caseIface) || types.Implements(types.NewPointer(impl), caseIface) {
									covered[impl.Obj()] = true
								}
							}
						} else {
							covered[caseNamed.Obj()] = true
						}
					}
				}
			}
			var missing []string
			for _, impl := range impls {
				if !covered[impl.Obj()] {
					missing = append(missing, impl.Obj().Name())
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(), "type switch over sealed %s.%s has no default case and misses: %s", named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// switchSubject resolves the static type of a type switch's subject
// expression, returning it when it is a named sealed-able interface.
func switchSubject(pass *framework.Pass, sw *ast.TypeSwitchStmt) (*types.Interface, *types.Named) {
	var expr ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.AssignStmt:
		ta := s.Rhs[0].(*ast.TypeAssertExpr)
		expr = ta.X
	case *ast.ExprStmt:
		ta := s.X.(*ast.TypeAssertExpr)
		expr = ta.X
	}
	if expr == nil {
		return nil, nil
	}
	t := pass.TypesInfo.Types[expr].Type
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil, nil
	}
	return iface, named
}
