package scopeql

import "strconv"

// Parse lexes and parses a SCOPE-like script. The AST is carved from a
// scratch of its own that nothing recycles, so the caller may keep it.
func Parse(src string) (*Script, error) {
	return new(scratch).parse(src)
}

// parse lexes src into sc's token buffer and parses it, carving the AST from
// sc's piles.
func (sc *scratch) parse(src string) (*Script, error) {
	toks, err := lexInto(sc.toks, src)
	sc.toks = toks
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks, sc: sc}
	return p.script()
}

// parser is a recursive-descent parser over one token slice. A list is
// collected in a stack buffer of its production's frame and kept in sc once
// it is complete; a longer list spills to the heap until it is kept.
type parser struct {
	toks []Token
	i    int
	sc   *scratch
}

// cur and next return the token in place, and atKeyword and atSymbol
// probe it by its code.
func (p *parser) cur() *Token  { return &p.toks[p.i] }
func (p *parser) next() *Token { t := &p.toks[p.i]; p.i++; return t }

func (p *parser) atKeyword(kw keyword) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.code == uint8(kw)
}

func (p *parser) atSymbol(sym symbol) bool {
	t := p.cur()
	return t.Kind == TokSymbol && t.code == uint8(sym)
}

func (p *parser) expectKeyword(kw keyword) (*Token, error) {
	if !p.atKeyword(kw) {
		return nil, errf(p.cur().Pos, "expected %s, found %q", keywords[kw], p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) expectSymbol(sym symbol) (*Token, error) {
	if !p.atSymbol(sym) {
		return nil, errf(p.cur().Pos, "expected %q, found %q", symbols[sym], p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) expectIdent() (*Token, error) {
	if p.cur().Kind != TokIdent {
		return nil, errf(p.cur().Pos, "expected identifier, found %q", p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) script() (*Script, error) {
	var buf [16]Stmt
	stmts := buf[:0]
	for p.cur().Kind != TokEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
	}
	if len(stmts) == 0 {
		return nil, errf(p.cur().Pos, "empty script")
	}
	return p.sc.scripts.add(Script{Stmts: p.sc.stmts.keep(stmts)}), nil
}

func (p *parser) statement() (Stmt, error) {
	if p.atKeyword(kwOutput) {
		pos := p.next().Pos
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKeyword(kwTo); err != nil {
			return nil, err
		}
		if p.cur().Kind != TokString {
			return nil, errf(p.cur().Pos, "expected output path string, found %q", p.cur().Text)
		}
		path := p.next().Text
		if _, err := p.expectSymbol(symSemi); err != nil {
			return nil, err
		}
		return p.sc.outputs.add(OutputStmt{Name: name.Text, Path: path, Pos: pos}), nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectSymbol(symAssign); err != nil {
		return nil, err
	}
	rel, err := p.relExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectSymbol(symSemi); err != nil {
		return nil, err
	}
	return p.sc.assigns.add(AssignStmt{Name: name.Text, Rel: rel, Pos: name.Pos}), nil
}

// relExpr parses a relational expression, handling UNION ALL at the top
// level.
func (p *parser) relExpr() (RelExpr, error) {
	first, err := p.relTerm()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword(kwUnion) {
		return first, nil
	}
	pos := p.cur().Pos
	var buf [8]RelExpr
	terms := append(buf[:0], first)
	for p.atKeyword(kwUnion) {
		p.next()
		if _, err := p.expectKeyword(kwAll); err != nil {
			return nil, err
		}
		t, err := p.relTerm()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return p.sc.unions.add(UnionExpr{Terms: p.sc.rels.keep(terms), Pos: pos}), nil
}

func (p *parser) relTerm() (RelExpr, error) {
	t := p.cur()
	switch {
	case p.atSymbol(symLParen):
		p.next()
		inner, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectSymbol(symRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case p.atKeyword(kwSelect):
		return p.selectExpr()
	case p.atKeyword(kwExtract):
		return p.extractExpr()
	case p.atKeyword(kwProcess):
		return p.processExpr()
	case p.atKeyword(kwReduce):
		return p.reduceExpr()
	case t.Kind == TokIdent:
		p.next()
		return p.varRef(t), nil
	}
	return nil, errf(t.Pos, "expected relational expression, found %q", t.Text)
}

func (p *parser) extractExpr() (RelExpr, error) {
	pos := p.next().Pos // EXTRACT
	var buf [16]string
	cols := buf[:0]
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c.Text)
		if !p.atSymbol(symComma) {
			break
		}
		p.next()
	}
	if _, err := p.expectKeyword(kwFrom); err != nil {
		return nil, err
	}
	if p.cur().Kind != TokString {
		return nil, errf(p.cur().Pos, "expected stream path string, found %q", p.cur().Text)
	}
	stream := p.next().Text
	return p.sc.extracts.add(ExtractExpr{Columns: p.sc.names.keep(cols), Stream: stream, Pos: pos}), nil
}

func (p *parser) processExpr() (RelExpr, error) {
	pos := p.next().Pos // PROCESS
	src, err := p.relSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectKeyword(kwUsing); err != nil {
		return nil, err
	}
	udo, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return p.sc.procs.add(ProcessExpr{Source: src, UDO: udo.Text, Pos: pos}), nil
}

func (p *parser) reduceExpr() (RelExpr, error) {
	pos := p.next().Pos // REDUCE
	src, err := p.relSource()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectKeyword(kwOn); err != nil {
		return nil, err
	}
	var buf [8]ColName
	keys := buf[:0]
	for {
		c, err := p.colName()
		if err != nil {
			return nil, err
		}
		keys = append(keys, c)
		if !p.atSymbol(symComma) {
			break
		}
		p.next()
	}
	if _, err := p.expectKeyword(kwUsing); err != nil {
		return nil, err
	}
	udo, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return p.sc.reduces.add(ReduceExpr{Source: src, Keys: p.sc.cols.keep(keys), UDO: udo.Text, Pos: pos}), nil
}

// relSource parses the source of PROCESS/REDUCE: a variable or a
// parenthesized relational expression.
func (p *parser) relSource() (RelExpr, error) {
	if p.atSymbol(symLParen) {
		p.next()
		inner, err := p.relExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectSymbol(symRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return p.varRef(id), nil
}

func (p *parser) varRef(id *Token) *VarRef {
	return p.sc.varRefs.add(VarRef{Name: id.Text, Pos: id.Pos})
}

func (p *parser) selectExpr() (RelExpr, error) {
	pos := p.next().Pos // SELECT
	var (
		sel      = SelectExpr{Pos: pos}
		itemBuf  [16]SelectItem
		joinBuf  [4]JoinClause
		groupBuf [8]ColName
		orderBuf [4]OrderKey
		items    = itemBuf[:0]
		joins    = joinBuf[:0]
		groupBy  = groupBuf[:0]
		orderBy  = orderBuf[:0]
	)
	if p.atKeyword(kwTop) {
		p.next()
		if p.cur().Kind != TokNumber {
			return nil, errf(p.cur().Pos, "expected number after TOP, found %q", p.cur().Text)
		}
		n, err := strconv.Atoi(p.next().Text)
		if err != nil || n <= 0 {
			return nil, errf(pos, "invalid TOP count")
		}
		sel.Top = n
	}
	if p.atSymbol(symStar) {
		p.next()
		sel.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if !p.atSymbol(symComma) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expectKeyword(kwFrom); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	for p.atKeyword(kwInner) || p.atKeyword(kwJoin) {
		jpos := p.cur().Pos
		if p.atKeyword(kwInner) {
			p.next()
		}
		if _, err := p.expectKeyword(kwJoin); err != nil {
			return nil, err
		}
		right, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKeyword(kwOn); err != nil {
			return nil, err
		}
		on, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		joins = append(joins, JoinClause{Right: right, On: on, Pos: jpos})
	}
	if p.atKeyword(kwWhere) {
		p.next()
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.atKeyword(kwGroup) {
		p.next()
		if _, err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		for {
			c, err := p.colName()
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, c)
			if !p.atSymbol(symComma) {
				break
			}
			p.next()
		}
	}
	if p.atKeyword(kwHaving) {
		p.next()
		h, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.atKeyword(kwOrder) {
		p.next()
		if _, err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		for {
			c, err := p.colName()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: c}
			if p.atKeyword(kwDesc) {
				p.next()
				key.Desc = true
			} else if p.atKeyword(kwAsc) {
				p.next()
			}
			orderBy = append(orderBy, key)
			if !p.atSymbol(symComma) {
				break
			}
			p.next()
		}
	}
	sel.Items = p.sc.items.keep(items)
	sel.Joins = p.sc.joins.keep(joins)
	sel.GroupBy = p.sc.cols.keep(groupBy)
	sel.OrderBy = p.sc.orders.keep(orderBy)
	return p.sc.selects.add(sel), nil
}

func (p *parser) selectItem() (SelectItem, error) {
	e, err := p.addExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.atKeyword(kwAs) {
		p.next()
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a.Text
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	t := p.cur()
	var ref TableRef
	ref.Pos = t.Pos
	switch {
	case t.Kind == TokString:
		p.next()
		ref.Stream = t.Text
	case t.Kind == TokIdent:
		p.next()
		ref.Var = t.Text
	case p.atSymbol(symLParen):
		p.next()
		inner, err := p.relExpr()
		if err != nil {
			return TableRef{}, err
		}
		if _, err := p.expectSymbol(symRParen); err != nil {
			return TableRef{}, err
		}
		ref.Sub = inner
	default:
		return TableRef{}, errf(t.Pos, "expected table reference, found %q", t.Text)
	}
	if p.atKeyword(kwAs) {
		p.next()
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.Text
	}
	return ref, nil
}

// Scalar expression grammar, lowest to highest precedence:
// orExpr := andExpr (OR andExpr)*
// andExpr := cmpExpr (AND cmpExpr)*
// cmpExpr := addExpr (cmpOp addExpr)?
// addExpr := mulExpr (("+"|"-") mulExpr)*
// mulExpr := unary (("*"|"/") unary)*
// unary := number | string | colName | call | "(" orExpr ")"

func (p *parser) orExpr() (ScalarExpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword(kwOr) {
		pos := p.next().Pos
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = p.bin("OR", l, r, pos)
	}
	return l, nil
}

func (p *parser) andExpr() (ScalarExpr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword(kwAnd) {
		pos := p.next().Pos
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = p.bin("AND", l, r, pos)
	}
	return l, nil
}

func (p *parser) cmpExpr() (ScalarExpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokSymbol && isComparison(symbol(t.code)) {
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return p.bin(t.Text, l, r, t.Pos), nil
	}
	return l, nil
}

func (p *parser) addExpr() (ScalarExpr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.atSymbol(symPlus) || p.atSymbol(symMinus) {
		t := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = p.bin(t.Text, l, r, t.Pos)
	}
	return l, nil
}

func (p *parser) mulExpr() (ScalarExpr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol(symStar) || p.atSymbol(symSlash) {
		t := p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = p.bin(t.Text, l, r, t.Pos)
	}
	return l, nil
}

func (p *parser) unary() (ScalarExpr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "invalid number %q", t.Text)
		}
		return p.sc.nums.add(NumLit{Value: v, Pos: t.Pos}), nil
	case t.Kind == TokString:
		p.next()
		return p.sc.strs.add(StrLit{Value: t.Text, Pos: t.Pos}), nil
	case t.Kind == TokKeyword && isAggregate(keyword(t.code)):
		p.next()
		if _, err := p.expectSymbol(symLParen); err != nil {
			return nil, err
		}
		call := CallExpr{Fn: t.Text, Pos: t.Pos}
		if p.atSymbol(symStar) {
			p.next()
			call.Star = true
		} else {
			arg, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			call.Args = p.sc.scalars.keep([]ScalarExpr{arg})
		}
		if _, err := p.expectSymbol(symRParen); err != nil {
			return nil, err
		}
		return p.sc.calls.add(call), nil
	case t.Kind == TokIdent:
		return p.colNameExpr()
	case p.atSymbol(symLParen):
		p.next()
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectSymbol(symRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return nil, errf(t.Pos, "expected expression, found %q", t.Text)
}

func (p *parser) colName() (ColName, error) {
	id, err := p.expectIdent()
	if err != nil {
		return ColName{}, err
	}
	c := ColName{Name: id.Text, Pos: id.Pos}
	if p.atSymbol(symDot) {
		p.next()
		id2, err := p.expectIdent()
		if err != nil {
			return ColName{}, err
		}
		c.Qualifier = c.Name
		c.Name = id2.Text
	}
	return c, nil
}

func (p *parser) colNameExpr() (ScalarExpr, error) {
	c, err := p.colName()
	if err != nil {
		return nil, err
	}
	return p.sc.cols.add(c), nil
}

func (p *parser) bin(op string, l, r ScalarExpr, pos Pos) *BinExpr {
	return p.sc.bins.add(BinExpr{Op: op, L: l, R: r, Pos: pos})
}
