"""Value semantics of the record classes: constructors, equality, hashing,
repr and pickling.

The reprs and hashes are pinned to what the earlier dataclass versions of
these classes gave, so printed records and the iteration order of sets
keyed by rings do not move.
"""

import pickle
import random
import re

import pytest

from gradedinv.core import DEGREVLEX, GF, LEX, QQ, FieldSpec, MonomialOrder, elimination_order
from gradedinv.dsl import (
    Command,
    IdealDecl,
    InstanceDecl,
    MapDecl,
    RingDecl,
    SessionScript,
    Token,
    parse_script,
)
from gradedinv.theorems import (
    ExtensionInstance,
    TheoremVerdict,
    check_separable_bound,
    invariant_report,
    quadric_cone_instance,
)


def test_reprs_are_field_by_field():
    assert repr(QQ) == "FieldSpec(characteristic=0)"
    assert repr(GF(7)) == "FieldSpec(characteristic=7)"
    assert repr(DEGREVLEX) == "MonomialOrder(kind='degrevlex', weights=None, block=0)"
    assert repr(elimination_order(2)) == "MonomialOrder(kind='elimination', weights=None, block=2)"
    assert (
        repr(MonomialOrder("weighted-degrevlex", (1, 2)))
        == "MonomialOrder(kind='weighted-degrevlex', weights=(1, 2), block=0)"
    )
    assert repr(Token("name", "x", 1, 2)) == "Token(kind='name', text='x', line=1, column=2)"
    assert (
        repr(TheoremVerdict("sep", "x", [("a", "verified")], 1, 2, "pass"))
        == "TheoremVerdict(theorem_id='sep', instance='x', hypotheses=[('a', 'verified')], "
        "lhs=1, rhs=2, conclusion='pass', notes='')"
    )
    script = parse_script(
        "ring A over QQ vars x:1, y:2;\nideal I in A = x^2;\nmap f : A -> A = x, y;\n"
        "instance t = (A, A, f) domain;\ninvariants I;"
    )
    assert repr(script) == (
        "SessionScript(declarations=[RingDecl(name='A', characteristic=0, "
        "variables=(('x', 1), ('y', 2))), IdealDecl(name='I', ring='A', generators=(x^2,)), "
        "MapDecl(name='f', source='A', target='A', images=(x, y)), InstanceDecl(name='t', "
        "A='A', B='A', map='f', characteristic=None, p_power=None, domain=True, "
        "separability='unknown')], commands=[Command(words=('invariants', 'I'))])"
    )
    assert repr(SessionScript()) == "SessionScript(declarations=[], commands=[])"
    inst = quadric_cone_instance()
    assert (
        repr(invariant_report(inst.B))
        == "InvariantReport(dim=2, depth=2, edim=3, multiplicity=2, regularity=1, "
        "a_invariant=-1, is_cm=True, is_r1=True, has_min_mult=True, "
        "hilbert=(1 - t^2) / (1-t^1) (1-t^1) (1-t^1), route='resolution')"
    )
    assert re.fullmatch(
        r"ExtensionInstance\(name='quadric-cone', A=QQ\[x, y\], B=QQ\[x, y, z\]/\(-x\*y \+ z\^2\), "
        r"inclusion=<gradedinv\.groebner\.GradedRingMap object at 0x[0-9a-f]+>, "
        r"characteristic=0, p_power=1, separability_claim='separable', proper=True\)",
        repr(inst),
    )


def test_fields_and_orders_compare_and_hash_by_value():
    assert QQ == FieldSpec() == FieldSpec(0) == FieldSpec(characteristic=0)
    assert GF(32003) == GF(32003) and GF(2) != GF(3) and QQ != GF(2)
    assert hash(GF(32003)) == hash(GF(32003)) == hash((32003,))
    assert hash(QQ) == hash((0,))
    assert DEGREVLEX == MonomialOrder() == MonomialOrder("degrevlex", None, 0)
    assert DEGREVLEX != LEX
    assert hash(DEGREVLEX) == hash(MonomialOrder("degrevlex")) == hash(("degrevlex", None, 0))
    assert elimination_order(3) == elimination_order(3) != elimination_order(2)
    assert hash(elimination_order(3)) == hash(MonomialOrder(kind="elimination", block=3))
    assert len({QQ, FieldSpec(0), GF(2), GF(2)}) == 2
    # A record never equals a record of another class or a plain tuple.
    assert QQ != (0,) and QQ != DEGREVLEX
    assert Token("sym", ";", 1, 1) == Token("sym", ";", 1, 1) != Token("sym", ";", 1, 2)


def test_constructors_validate_as_before():
    with pytest.raises(ValueError, match="prime"):
        FieldSpec(4)
    with pytest.raises(ValueError, match="unknown order kind"):
        MonomialOrder("bogus")
    with pytest.raises(ValueError, match="weights"):
        MonomialOrder("weighted-degrevlex")
    with pytest.raises(ValueError, match="block"):
        MonomialOrder("elimination")
    inst = quadric_cone_instance()
    with pytest.raises(ValueError, match="bad separability claim"):
        ExtensionInstance("x", inst.A, inst.B, inst.inclusion, 0, separability_claim="maybe")
    with pytest.raises(TypeError):
        FieldSpec(0, 1)
    with pytest.raises(TypeError):
        TheoremVerdict("sep", "x", [], None, None)


@pytest.mark.parametrize(
    "record, field",
    [(QQ, "characteristic"), (DEGREVLEX, "kind"), (Token("int", "1", 1, 1), "text")],
)
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_mutable_records_are_unhashable():
    inst = quadric_cone_instance()
    records = [
        inst,
        TheoremVerdict("sep", "x", [], None, None, "pass"),
        invariant_report(inst.A),
        RingDecl("A", 0, (("x", 1),)),
        IdealDecl("I", "A", ()),
        MapDecl("f", "A", "A", ()),
        InstanceDecl("t", "A", "A", "f"),
        Command(("betti", "A")),
        SessionScript(),
    ]
    for record in records:
        with pytest.raises(TypeError):
            hash(record)
    decl = InstanceDecl("t", "A", "A", "f")
    decl.domain = True
    assert decl == InstanceDecl("t", "A", "A", "f", domain=True)
    assert SessionScript().declarations is not SessionScript().declarations


def test_records_and_presentations_survive_pickling():
    for record in (QQ, GF(5), DEGREVLEX, elimination_order(2), Token("eof", "", 3, 1)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
    inst = quadric_cone_instance(GF(3))
    B = pickle.loads(pickle.dumps(inst.B))
    assert (B.ring, B.ideal_gens, B.asserted_domain, B.name) == (
        inst.B.ring, inst.B.ideal_gens, inst.B.asserted_domain, inst.B.name,
    )
    copy = pickle.loads(pickle.dumps(inst))
    assert isinstance(copy, ExtensionInstance)
    assert (copy.name, copy.characteristic, copy.p_power, copy.separability_claim, copy.proper) == (
        inst.name, inst.characteristic, inst.p_power, inst.separability_claim, inst.proper,
    )
    assert copy.A.ring == inst.A.ring and copy.B.ideal_gens == inst.B.ideal_gens
    assert copy.inclusion.source is copy.A and copy.inclusion.target is copy.B
    verdict = check_separable_bound(inst, random.Random(1))
    assert check_separable_bound(copy, random.Random(1)) == verdict
    assert pickle.loads(pickle.dumps(verdict)) == verdict
    report = invariant_report(inst.B)
    assert pickle.loads(pickle.dumps(report)).to_dict() == report.to_dict()
