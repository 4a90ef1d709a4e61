"""Recursive-descent parser for the SQL subset.

Grammar (informal):

.. code-block:: text

    select    := SELECT item (',' item)*
                 [FROM table_ref (join_clause)*]
                 [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
                 [ORDER BY order_item (',' order_item)*] [LIMIT n]
                 [ERROR WITHIN number '%' CONFIDENCE number '%'] [';']
    table_ref := ident [AS ident] [TABLESAMPLE method '(' number ')'
                 [REPEATABLE '(' number ')']]
    join      := [INNER|LEFT] JOIN table_ref ON expr
    expr      := or_expr with standard precedence:
                 OR < AND < NOT < comparison/IN/BETWEEN < +- < */% < unary

Only the features the engine executes are accepted; everything else raises
:class:`~repro.core.exceptions.SQLSyntaxError` with a position.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.exceptions import SQLSyntaxError
from .ast import (
    BetweenExpr,
    Binary,
    BoolLit,
    CaseExpr,
    ColumnRef,
    ErrorSpecClause,
    FuncExpr,
    InListExpr,
    JoinClause,
    NumberLit,
    OrderItem,
    SelectItem,
    SelectStatement,
    SqlExpr,
    StringLit,
    TableRef,
    TableSampleSpec,
    Unary,
)
from .lexer import Token, tokenize


class Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.peek().matches_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        tok = self.accept_keyword(*names)
        if tok is None:
            raise SQLSyntaxError(
                f"expected {' or '.join(names)}, got {self.peek().value!r}",
                self.peek().position,
            )
        return tok

    def accept_op(self, op: str) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == op:
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        tok = self.accept_op(op)
        if tok is None:
            raise SQLSyntaxError(
                f"expected {op!r}, got {self.peek().value!r}", self.peek().position
            )
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise SQLSyntaxError(
                f"expected identifier, got {tok.value!r}", tok.position
            )
        return self.advance()

    def expect_number(self) -> float:
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise SQLSyntaxError(f"expected number, got {tok.value!r}", tok.position)
        self.advance()
        return float(tok.value)

    # -- entry point ----------------------------------------------------
    def parse_select(self) -> SelectStatement:
        """Parse ``select (UNION ALL select)*`` and the trailing EOF."""
        first = self._select_core()
        branches = []
        while self.accept_keyword("UNION"):
            self.expect_keyword("ALL")
            branches.append(self._select_core())
        self.accept_op(";")
        tok = self.peek()
        if tok.kind != "EOF":
            raise SQLSyntaxError(
                f"unexpected trailing input {tok.value!r}", tok.position
            )
        if branches:
            from dataclasses import replace as _replace

            for branch in (first, *branches):
                if branch.order_by or branch.limit is not None:
                    raise SQLSyntaxError(
                        "ORDER BY/LIMIT are not supported inside UNION ALL "
                        "branches", tok.position,
                    )
                if branch.error_spec is not None:
                    raise SQLSyntaxError(
                        "ERROR WITHIN is not supported on UNION ALL queries",
                        tok.position,
                    )
            return _replace(first, union_branches=tuple(branches))
        return first

    def _select_core(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())

        from_table: Optional[TableRef] = None
        joins: List[JoinClause] = []
        if self.accept_keyword("FROM"):
            from_table = self._table_ref()
            while True:
                how = "inner"
                if self.accept_keyword("INNER"):
                    self.expect_keyword("JOIN")
                elif self.accept_keyword("LEFT"):
                    how = "left"
                    self.expect_keyword("JOIN")
                elif self.accept_keyword("JOIN"):
                    pass
                else:
                    break
                table = self._table_ref()
                self.expect_keyword("ON")
                condition = self.parse_expr()
                joins.append(JoinClause(table=table, condition=condition, how=how))

        where = self.parse_expr() if self.accept_keyword("WHERE") else None

        group_by: List[SqlExpr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("HAVING") else None

        order_by: List[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())

        limit = None
        if self.accept_keyword("LIMIT"):
            limit = int(self.expect_number())

        error_spec = None
        if self.accept_keyword("ERROR"):
            self.expect_keyword("WITHIN")
            err = self.expect_number()
            self.expect_op("%")
            self.expect_keyword("CONFIDENCE")
            conf = self.expect_number()
            self.expect_op("%")
            error_spec = ErrorSpecClause(
                relative_error=err / 100.0, confidence=conf / 100.0
            )

        return SelectStatement(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            error_spec=error_spec,
        )

    # -- clauses ---------------------------------------------------------
    def _select_item(self) -> SelectItem:
        if self.peek().kind == "OP" and self.peek().value == "*":
            self.advance()
            return SelectItem(expr=ColumnRef(name="*"), alias=None)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident().value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def _order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    def _table_ref(self) -> TableRef:
        name = self.expect_ident().value
        alias = name
        if self.accept_keyword("AS"):
            alias = self.expect_ident().value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        sample = None
        if self.accept_keyword("TABLESAMPLE"):
            method_tok = self.peek()
            if method_tok.matches_keyword("BERNOULLI", "SYSTEM", "ROWS", "BLOCKS"):
                self.advance()
            else:
                raise SQLSyntaxError(
                    "expected BERNOULLI, SYSTEM, ROWS or BLOCKS",
                    method_tok.position,
                )
            self.expect_op("(")
            value = self.expect_number()
            self.expect_op(")")
            seed = None
            if self.accept_keyword("REPEATABLE"):
                self.expect_op("(")
                seed = int(self.expect_number())
                self.expect_op(")")
            sample = TableSampleSpec(method=method_tok.value, value=value, seed=seed)
        return TableRef(name=name, alias=alias, sample=sample)

    # -- expressions ------------------------------------------------------
    def parse_expr(self) -> SqlExpr:
        return self._or_expr()

    def _or_expr(self) -> SqlExpr:
        left = self._and_expr()
        while self.accept_keyword("OR"):
            left = Binary("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> SqlExpr:
        left = self._not_expr()
        while self.accept_keyword("AND"):
            left = Binary("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> SqlExpr:
        if self.accept_keyword("NOT"):
            return Unary("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> SqlExpr:
        left = self._additive()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            return Binary(tok.value, left, self._additive())
        negated = False
        if self.peek().matches_keyword("NOT") and self.peek(1).matches_keyword(
            "IN", "BETWEEN"
        ):
            self.advance()
            negated = True
        if self.accept_keyword("IN"):
            self.expect_op("(")
            values = [self.parse_expr()]
            while self.accept_op(","):
                values.append(self.parse_expr())
            self.expect_op(")")
            return InListExpr(operand=left, values=tuple(values), negated=negated)
        if self.accept_keyword("BETWEEN"):
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            return BetweenExpr(operand=left, low=low, high=high, negated=negated)
        if negated:
            raise SQLSyntaxError("dangling NOT", self.peek().position)
        return left

    def _additive(self) -> SqlExpr:
        left = self._multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("+", "-"):
                self.advance()
                left = Binary(tok.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> SqlExpr:
        left = self._unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("*", "/", "%"):
                # '%' only acts as modulo inside expressions; the ERROR
                # clause consumes its own '%' tokens after a NUMBER.
                self.advance()
                left = Binary(tok.value, left, self._unary())
            else:
                return left

    def _unary(self) -> SqlExpr:
        if self.accept_op("-"):
            return Unary("-", self._unary())
        self.accept_op("+")
        return self._primary()

    def _primary(self) -> SqlExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return NumberLit(float(tok.value))
        if tok.kind == "STRING":
            self.advance()
            return StringLit(tok.value)
        if tok.matches_keyword("TRUE"):
            self.advance()
            return BoolLit(True)
        if tok.matches_keyword("FALSE"):
            self.advance()
            return BoolLit(False)
        if tok.matches_keyword("CASE"):
            return self._case_expr()
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind == "IDENT":
            return self._ident_expr()
        raise SQLSyntaxError(
            f"unexpected token {tok.value!r} in expression", tok.position
        )

    def _case_expr(self) -> SqlExpr:
        self.expect_keyword("CASE")
        branches: List[Tuple[SqlExpr, SqlExpr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((cond, value))
        if not branches:
            raise SQLSyntaxError("CASE requires WHEN", self.peek().position)
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return CaseExpr(branches=tuple(branches), default=default)

    def _ident_expr(self) -> SqlExpr:
        first = self.expect_ident().value
        # Function call?
        if self.peek().kind == "OP" and self.peek().value == "(":
            self.advance()
            distinct = bool(self.accept_keyword("DISTINCT"))
            if self.peek().kind == "OP" and self.peek().value == "*":
                self.advance()
                self.expect_op(")")
                return FuncExpr(name=first.lower(), args=(), star=True)
            args: List[SqlExpr] = []
            if not (self.peek().kind == "OP" and self.peek().value == ")"):
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
            return FuncExpr(
                name=first.lower(), args=tuple(args), distinct=distinct
            )
        # Qualified column?
        if self.accept_op("."):
            second = self.expect_ident().value
            return ColumnRef(name=second, qualifier=first)
        return ColumnRef(name=first)


def parse_sql(text: str) -> SelectStatement:
    """Parse a single SELECT statement."""
    return Parser(text).parse_select()


def split_explain(text: str) -> Tuple[Optional[str], str]:
    """Peel an ``EXPLAIN [ANALYZE]`` prefix off a SQL string.

    Returns ``(mode, inner_sql)`` where ``mode`` is ``None`` (no
    prefix), ``"explain"`` or ``"analyze"``. EXPLAIN/ANALYZE are not
    lexer keywords, so the prefix is matched case-insensitively on the
    leading words, read past whitespace and ``--`` comments as the lexer
    reads them; the statement is left for the parser to tokenize, once.
    The inner statement is sliced out of the original text by source
    offset, byte-for-byte.
    """
    word, start, end = _leading_word(text, 0)
    if word.upper() != "EXPLAIN":
        return None, text
    mode = "explain"
    word, rest, after = _leading_word(text, end)
    if rest == len(text):
        raise SQLSyntaxError("EXPLAIN requires a statement", start)
    if word.upper() == "ANALYZE":
        mode = "analyze"
        analyze = rest
        _, rest, _ = _leading_word(text, after)
        if rest == len(text):
            raise SQLSyntaxError("EXPLAIN ANALYZE requires a statement", analyze)
    return mode, text[rest:]


def _leading_word(text: str, i: int) -> Tuple[str, int, int]:
    """``(word, start, end)`` of the first token at or after offset ``i``:
    ``start`` skips whitespace and ``--`` line comments (``len(text)``
    when none is left) and ``word`` is the token's text when it is a bare
    word, else empty."""
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
        elif text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline
        else:
            break
    j = i
    if i < n and (text[i].isalpha() or text[i] == "_"):
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
    return text[i:j], i, j
