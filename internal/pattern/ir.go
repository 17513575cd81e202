package pattern

import (
	"fmt"

	"declpat/internal/distgraph"
)

// Word is the engine's value type: patterns compute over 64-bit words.
// Vertices appearing as values are widened to words.
type Word = int64

// Inf is the conventional "unreached" distance value (fits comfortably in
// sums without overflowing).
const Inf Word = 1 << 60

// NilWord encodes the paper's NULL vertex value inside word-valued property
// maps.
const NilWord Word = -1

// MaxSlots bounds the number of payload words a single action may carry
// (gathered accesses plus folded temporaries).
const MaxSlots = 12

// PropKind distinguishes the property families a pattern may declare.
type PropKind int

const (
	// VertexWordProp is a word-valued vertex property.
	VertexWordProp PropKind = iota
	// EdgeWordProp is a word-valued edge property.
	EdgeWordProp
	// VertexSetProp is a set-of-vertices-valued vertex property.
	VertexSetProp
)

func (k PropKind) String() string {
	switch k {
	case VertexWordProp:
		return "vertex-property"
	case EdgeWordProp:
		return "edge-property"
	case VertexSetProp:
		return "vertex-set-property"
	}
	return fmt.Sprintf("PropKind(%d)", int(k))
}

// Prop is a property-map declaration inside a pattern (§III-B). It is bound
// to concrete storage when the pattern is bound to an Engine.
type Prop struct {
	Name string
	Kind PropKind
	pat  *Pattern
}

// Pattern is a named collection of property declarations and actions (§III).
type Pattern struct {
	Name    string
	Props   []*Prop
	Actions []*Action
}

// New creates an empty pattern.
func New(name string) *Pattern { return &Pattern{Name: name} }

// VertexProp declares a word-valued vertex property.
func (p *Pattern) VertexProp(name string) *Prop { return p.addProp(name, VertexWordProp) }

// EdgeProp declares a word-valued edge property.
func (p *Pattern) EdgeProp(name string) *Prop { return p.addProp(name, EdgeWordProp) }

// VertexSetProp declares a set-of-vertices vertex property (the paper's
// preds example).
func (p *Pattern) VertexSetProp(name string) *Prop { return p.addProp(name, VertexSetProp) }

func (p *Pattern) addProp(name string, kind PropKind) *Prop {
	for _, q := range p.Props {
		if q.Name == name {
			panic("pattern: duplicate property " + name)
		}
	}
	pr := &Prop{Name: name, Kind: kind, pat: p}
	p.Props = append(p.Props, pr)
	return pr
}

// GenKind selects an action's generator (§III-C: zero or one generator).
type GenKind int

const (
	// GenNone runs the action at the input vertex only.
	GenNone GenKind = iota
	// GenOutEdges generates the out-edges of v.
	GenOutEdges
	// GenInEdges generates the in-edges of v (bidirectional graphs).
	GenInEdges
	// GenAdj generates the out-neighbour vertices of v.
	GenAdj
	// GenPropSet generates the vertices stored in a set-valued property
	// at v.
	GenPropSet
)

// Generator describes an action's fan-out.
type Generator struct {
	Kind GenKind
	Set  *Prop // for GenPropSet
}

// None returns the empty generator.
func None() Generator { return Generator{Kind: GenNone} }

// OutEdges returns the out_edges generator.
func OutEdges() Generator { return Generator{Kind: GenOutEdges} }

// InEdges returns the in_edges generator.
func InEdges() Generator { return Generator{Kind: GenInEdges} }

// Adj returns the adj generator.
func Adj() Generator { return Generator{Kind: GenAdj} }

// SetOf returns a generator over the vertices stored in set-valued property
// p at the input vertex.
func SetOf(p *Prop) Generator { return Generator{Kind: GenPropSet, Set: p} }

// Loc designates the vertex a value is accessed at (Def. 1). For edge
// properties, LocE designates the generated edge, whose locality is the
// generation vertex.
type Loc struct {
	Kind LocKind
	A    *Access // for LocAccess: the access whose gathered value is the vertex
}

// LocKind enumerates locality designators.
type LocKind int

const (
	// LocV is the action's input vertex.
	LocV LocKind = iota
	// LocU is the generated vertex (adj / set generators).
	LocU
	// LocTrg is the target of the generated edge.
	LocTrg
	// LocSrc is the source of the generated edge.
	LocSrc
	// LocE is the generated edge itself (edge property index).
	LocE
	// LocAccess is a vertex read from a property map (pointer chains).
	LocAccess
)

// V designates the input vertex.
func V() Loc { return Loc{Kind: LocV} }

// U designates the generated vertex.
func U() Loc { return Loc{Kind: LocU} }

// Trg designates the generated edge's target.
func Trg() Loc { return Loc{Kind: LocTrg} }

// Src designates the generated edge's source.
func Src() Loc { return Loc{Kind: LocSrc} }

// E designates the generated edge (edge property index).
func E() Loc { return Loc{Kind: LocE} }

func (l Loc) String() string {
	switch l.Kind {
	case LocV:
		return "v"
	case LocU:
		return "u"
	case LocTrg:
		return "trg(e)"
	case LocSrc:
		return "src(e)"
	case LocE:
		return "e"
	case LocAccess:
		return "val(" + l.A.String() + ")"
	}
	return "?"
}

// Access is one property-map read or write site: property p indexed at
// locality At. Structurally equal accesses are unified by Compile and share
// one payload slot.
type Access struct {
	Prop *Prop
	At   Loc
	slot int // assigned by Compile
}

func (a *Access) String() string { return a.Prop.Name + "[" + a.At.String() + "]" }

// At builds an access to p indexed by the given locality designator.
func (p *Prop) At(l Loc) Expr {
	if p.Kind == EdgeWordProp && l.Kind != LocE {
		panic("pattern: edge property " + p.Name + " must be indexed by the generated edge (pattern.E())")
	}
	if p.Kind != EdgeWordProp && l.Kind == LocE {
		panic("pattern: vertex property " + p.Name + " indexed by an edge")
	}
	return AccessExpr{A: &Access{Prop: p, At: l}}
}

// AtVal builds an access to p indexed by a vertex value read from another
// property map (the pointer-jumping form, e.g. chg[chg[v]]). idx must be a
// property access yielding a vertex.
func (p *Prop) AtVal(idx Expr) Expr {
	ae, ok := idx.(AccessExpr)
	if !ok {
		panic("pattern: AtVal index must be a property access (vertices can only come from generators and property maps)")
	}
	if p.Kind == EdgeWordProp {
		panic("pattern: edge property " + p.Name + " cannot be indexed by a vertex value")
	}
	return AccessExpr{A: &Access{Prop: p, At: Loc{Kind: LocAccess, A: ae.A}}}
}

// Expr is a side-effect-free pattern expression over words.
type Expr interface {
	exprNode()
	String() string
}

// Const is a literal word.
type Const struct{ X Word }

func (Const) exprNode()        {}
func (c Const) String() string { return fmt.Sprintf("%d", c.X) }

// VertexVal is a vertex id used as a value (e.g. comp[v] = v).
type VertexVal struct{ L Loc }

func (VertexVal) exprNode()        {}
func (x VertexVal) String() string { return x.L.String() }

// AccessExpr is the value of a property access.
type AccessExpr struct{ A *Access }

func (AccessExpr) exprNode()        {}
func (x AccessExpr) String() string { return x.A.String() }

// BinOp enumerates binary operators.
type BinOp int

// Binary operators usable in pattern expressions.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMin
	OpMax
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "min", "max", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

func (Bin) exprNode() {}
func (b Bin) String() string {
	return "(" + b.L.String() + " " + binOpNames[b.Op] + " " + b.R.String() + ")"
}

// NotExpr is logical negation.
type NotExpr struct{ X Expr }

func (NotExpr) exprNode()        {}
func (n NotExpr) String() string { return "!" + n.X.String() }

// tempRef refers to a folded temporary's payload slot (created by the
// planner; never constructed by users).
type tempRef struct {
	slot int
	orig Expr
}

func (tempRef) exprNode()        {}
func (t tempRef) String() string { return "tmp" + fmt.Sprintf("%d", t.slot) }

// Convenience constructors mirroring the paper's expression forms.

// C returns a constant expression.
func C(x Word) Expr { return Const{X: x} }

// Vtx returns the vertex at l as a word value.
func Vtx(l Loc) Expr { return VertexVal{L: l} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Div returns l / r (integer division; division by zero yields 0, keeping
// actions total).
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// ModE returns l % r (modulo by zero yields 0).
func ModE(l, r Expr) Expr { return Bin{Op: OpMod, L: l, R: r} }

// MinE returns min(l, r).
func MinE(l, r Expr) Expr { return Bin{Op: OpMin, L: l, R: r} }

// MaxE returns max(l, r).
func MaxE(l, r Expr) Expr { return Bin{Op: OpMax, L: l, R: r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return Bin{Op: OpLt, L: l, R: r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return Bin{Op: OpLe, L: l, R: r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return Bin{Op: OpGt, L: l, R: r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return Bin{Op: OpGe, L: l, R: r} }

// Eq returns l == r.
func Eq(l, r Expr) Expr { return Bin{Op: OpEq, L: l, R: r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return Bin{Op: OpNe, L: l, R: r} }

// And returns l && r.
func And(l, r Expr) Expr { return Bin{Op: OpAnd, L: l, R: r} }

// Or returns l || r.
func Or(l, r Expr) Expr { return Bin{Op: OpOr, L: l, R: r} }

// Not returns !x.
func Not(x Expr) Expr { return NotExpr{X: x} }

// ModOp enumerates modification operators; the leftmost accessed value of a
// modification statement is the modified one (§III-C).
type ModOp int

const (
	// OpAssign stores the right-hand side.
	OpAssign ModOp = iota
	// OpAssignMin lowers the target to min(target, rhs).
	OpAssignMin
	// OpAssignMax raises the target to max(target, rhs).
	OpAssignMax
	// OpAssignAdd adds the rhs to the target.
	OpAssignAdd
	// OpInsert inserts a vertex into a set-valued target
	// (preds[v].insert(u)).
	OpInsert
)

var modOpNames = [...]string{"=", "min=", "max=", "+=", ".insert"}

// Mod is one modification statement.
type Mod struct {
	Target *Access
	Op     ModOp
	Rhs    Expr

	// firesDependency is set by Compile when Target's property is also
	// read somewhere in the action (§IV-C).
	firesDependency bool
}

func (m Mod) String() string {
	return m.Target.String() + " " + modOpNames[m.Op] + " " + m.Rhs.String()
}

// Cond is one condition: a guard expression and the modifications it
// protects. Elif marks it as the else-branch of the preceding condition;
// non-Elif conditions form the paper's "series of if statements".
type Cond struct {
	Test Expr // nil = unconditional (a bare else / unconditional statement)
	Mods []Mod
	Elif bool
}

// Action is a pattern action (§III-C): a name, an optional generator, and a
// condition chain.
type Action struct {
	Name  string
	Gen   Generator
	Conds []Cond
	pat   *Pattern
}

// Action declares a new action on the pattern.
func (p *Pattern) Action(name string, gen Generator) *Action {
	for _, a := range p.Actions {
		if a.Name == name {
			panic("pattern: duplicate action " + name)
		}
	}
	if gen.Kind == GenPropSet && (gen.Set == nil || gen.Set.Kind != VertexSetProp) {
		panic("pattern: SetOf generator requires a vertex-set property")
	}
	a := &Action{Name: name, Gen: gen, pat: p}
	p.Actions = append(p.Actions, a)
	return a
}

// CondBuilder accumulates the modifications of one condition.
type CondBuilder struct {
	a  *Action
	ci int
}

// If appends a new independent condition guarded by test.
func (a *Action) If(test Expr) *CondBuilder {
	a.Conds = append(a.Conds, Cond{Test: test})
	return &CondBuilder{a: a, ci: len(a.Conds) - 1}
}

// Elif appends an else-if branch of the previous condition.
func (a *Action) Elif(test Expr) *CondBuilder {
	if len(a.Conds) == 0 {
		panic("pattern: Elif without a preceding If")
	}
	a.Conds = append(a.Conds, Cond{Test: test, Elif: true})
	return &CondBuilder{a: a, ci: len(a.Conds) - 1}
}

// Else appends an unconditional else branch of the previous condition.
func (a *Action) Else() *CondBuilder {
	if len(a.Conds) == 0 {
		panic("pattern: Else without a preceding If")
	}
	a.Conds = append(a.Conds, Cond{Test: nil, Elif: true})
	return &CondBuilder{a: a, ci: len(a.Conds) - 1}
}

// Do appends an unconditional independent statement group.
func (a *Action) Do() *CondBuilder {
	a.Conds = append(a.Conds, Cond{Test: nil})
	return &CondBuilder{a: a, ci: len(a.Conds) - 1}
}

func (cb *CondBuilder) addMod(target Expr, op ModOp, rhs Expr) *CondBuilder {
	ae, ok := target.(AccessExpr)
	if !ok {
		panic("pattern: modification target must be a property access")
	}
	cb.a.Conds[cb.ci].Mods = append(cb.a.Conds[cb.ci].Mods, Mod{Target: ae.A, Op: op, Rhs: rhs})
	return cb
}

// Set adds the modification target = rhs.
func (cb *CondBuilder) Set(target Expr, rhs Expr) *CondBuilder {
	return cb.addMod(target, OpAssign, rhs)
}

// SetMin adds target = min(target, rhs).
func (cb *CondBuilder) SetMin(target Expr, rhs Expr) *CondBuilder {
	return cb.addMod(target, OpAssignMin, rhs)
}

// SetMax adds target = max(target, rhs).
func (cb *CondBuilder) SetMax(target Expr, rhs Expr) *CondBuilder {
	return cb.addMod(target, OpAssignMax, rhs)
}

// AddTo adds target += rhs.
func (cb *CondBuilder) AddTo(target Expr, rhs Expr) *CondBuilder {
	return cb.addMod(target, OpAssignAdd, rhs)
}

// Insert adds target.insert(rhs) for set-valued targets; rhs must yield a
// vertex.
func (cb *CondBuilder) Insert(target Expr, rhs Expr) *CondBuilder {
	return cb.addMod(target, OpInsert, rhs)
}

// nilVertexWord converts a vertex to its word encoding (NilWord for
// NilVertex).
func vertexWord(v distgraph.Vertex) Word {
	if v == distgraph.NilVertex {
		return NilWord
	}
	return Word(v)
}

// wordVertex converts a word back to a vertex. A word that is no vertex id —
// negative, or too large to be one — maps to NilVertex rather than being
// truncated onto some real vertex.
func wordVertex(w Word) distgraph.Vertex {
	if w < 0 || w >= Word(distgraph.NilVertex) {
		return distgraph.NilVertex
	}
	return distgraph.Vertex(w)
}
