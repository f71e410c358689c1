"""Tests for OpenTag-style product extraction."""

import pytest

from repro.datagen.products import LabeledText, ProductRecord
from repro.ml.metrics import BinaryConfusion
from repro.ml.tagger import OUTSIDE
from repro.products.adatag import AdaTagModel
from repro.products.opentag import (
    OpenTagModel,
    bio_tag_rule,
    distant_bio_tags,
    gold_bio_tags,
    mentioned_attributes,
    score_extractions,
    train_test_split,
)


def _mocha():
    """A hand-built product whose text mentions flavor and roast, not size."""
    return ProductRecord(
        product_id="B1",
        leaf_type="Coffee",
        product_type="Coffee",
        department="Grocery",
        title=LabeledText(
            tokens=("Mocha", "Dark", "Roast", "Coffee"),
            spans=((0, 1, "flavor"), (1, 3, "roast")),
        ),
        bullets=[],
        true_values={"flavor": "mocha", "roast": "dark roast", "size": "12 oz"},
        catalog_values={"flavor": "vanilla"},
        image_tokens=[],
    )


@pytest.fixture(scope="module")
def coffee(product_domain):
    products = product_domain.by_type("Coffee")
    return train_test_split(products, test_fraction=0.3, seed=1)


class TestLabeling:
    def test_gold_tags_match_spans(self, product_domain):
        product = product_domain.products[0]
        attributes = set(product.true_values)
        tags = gold_bio_tags(product.title, attributes)
        assert len(tags) == len(product.title.tokens)
        labeled = {tag[2:] for tag in tags if tag != OUTSIDE}
        span_attributes = {attribute for _s, _e, attribute in product.title.spans}
        assert labeled == span_attributes

    def test_gold_tags_filter_attributes(self, product_domain):
        product = product_domain.products[0]
        tags = gold_bio_tags(product.title, set())
        assert set(tags) == {OUTSIDE}

    def test_distant_tags_follow_catalog(self, product_domain):
        for product in product_domain.products[:50]:
            tags = distant_bio_tags(
                product.title, product.catalog_values, set(product.true_values)
            )
            for tag in tags:
                if tag != OUTSIDE:
                    assert tag[2:] in product.catalog_values

    def test_distant_tags_empty_catalog(self, product_domain):
        product = product_domain.products[0]
        tags = distant_bio_tags(product.title, {}, {"flavor"})
        assert set(tags) == {OUTSIDE}

    def test_mentioned_attributes(self, product_domain):
        product = product_domain.products[0]
        mentioned = mentioned_attributes(product)
        assert mentioned <= set(product.true_values)


class TestScoreExtractions:
    ATTRIBUTES = ("flavor", "roast", "size")

    def _score(self, predicted, mentioned_only=True):
        return score_extractions(
            [_mocha()], self.ATTRIBUTES, lambda _product: predicted, mentioned_only
        )

    def test_case_insensitive_match_is_a_true_positive(self):
        confusions = self._score({"flavor": "MOCHA"})
        assert confusions["flavor"] == BinaryConfusion(true_positive=1)

    def test_wrong_value_is_a_false_positive(self):
        confusions = self._score({"roast": "light roast"})
        assert confusions["roast"] == BinaryConfusion(false_positive=1)

    def test_unmentioned_truth_is_a_false_positive_when_mentioned_only(self):
        confusions = self._score({"size": "12 oz"})
        assert confusions["size"] == BinaryConfusion(false_positive=1)

    def test_unmentioned_truth_is_a_true_positive_otherwise(self):
        confusions = self._score({"size": "12 oz"}, mentioned_only=False)
        assert confusions["size"] == BinaryConfusion(true_positive=1)

    def test_unpredicted_mentioned_truth_is_a_false_negative(self):
        confusions = self._score({})
        assert confusions == {
            "flavor": BinaryConfusion(false_negative=1),
            "roast": BinaryConfusion(false_negative=1),
            "size": BinaryConfusion(),
        }
        assert self._score({}, mentioned_only=False)["size"] == BinaryConfusion(
            false_negative=1
        )


class TestBioTagRule:
    def test_gold_and_distant_rules(self):
        product = _mocha()
        gold = bio_tag_rule("gold")(product.title, product, {"flavor"})
        assert gold == gold_bio_tags(product.title, {"flavor"})
        distant = bio_tag_rule("distant")(product.title, product, {"flavor"})
        assert distant == distant_bio_tags(product.title, product.catalog_values, {"flavor"})
        assert set(distant) == {OUTSIDE}  # the catalog's "vanilla" is not in the text

    @pytest.mark.parametrize("model", [OpenTagModel(("flavor",)), AdaTagModel(("flavor",))])
    def test_unknown_supervision_rejected_before_training(self, model):
        with pytest.raises(ValueError, match="unknown supervision mode 'psychic'"):
            model.fit([], supervision="psychic")
        assert model.tagger_ is None


class TestOpenTagModel:
    def test_gold_supervision_production_band(self, coffee):
        train, test = coffee
        model = OpenTagModel(attributes=("flavor", "roast"), n_epochs=6, seed=1).fit(
            train, supervision="gold"
        )
        f1 = model.micro_f1(test)
        assert f1 > 0.8  # Sec. 3.2: raw NER 85-95%

    def test_distant_supervision_weaker_but_useful(self, coffee):
        train, test = coffee
        gold = OpenTagModel(attributes=("flavor",), n_epochs=6, seed=1).fit(
            train, supervision="gold"
        )
        distant = OpenTagModel(attributes=("flavor",), n_epochs=6, seed=1).fit(
            train, supervision="distant"
        )
        f_gold = gold.micro_f1(test)
        f_distant = distant.micro_f1(test)
        assert f_distant > 0.4
        assert f_gold >= f_distant - 0.05

    def test_extract_returns_known_attributes_only(self, coffee):
        train, test = coffee
        model = OpenTagModel(attributes=("flavor",), n_epochs=4, seed=1).fit(train)
        for product in test[:10]:
            assert set(model.extract(product)) <= {"flavor"}

    def test_unknown_supervision_rejected(self, coffee):
        train, _test = coffee
        with pytest.raises(ValueError):
            OpenTagModel(attributes=("flavor",)).fit(train, supervision="psychic")

    def test_unfitted_raises(self, product_domain):
        with pytest.raises(RuntimeError):
            OpenTagModel(attributes=("flavor",)).extract(product_domain.products[0])

    def test_evaluate_confusions_per_attribute(self, coffee):
        train, test = coffee
        model = OpenTagModel(attributes=("flavor", "roast"), n_epochs=4, seed=1).fit(train)
        confusions = model.evaluate(test)
        assert set(confusions) == {"flavor", "roast"}


class TestSplit:
    def test_split_fractions(self, product_domain):
        train, test = train_test_split(product_domain.products, 0.25, seed=2)
        assert len(test) == int(len(product_domain.products) * 0.25)
        assert len(train) + len(test) == len(product_domain.products)

    def test_split_disjoint(self, product_domain):
        train, test = train_test_split(product_domain.products, 0.5, seed=2)
        assert not ({p.product_id for p in train} & {p.product_id for p in test})

    def test_split_deterministic(self, product_domain):
        first = train_test_split(product_domain.products, 0.3, seed=3)
        second = train_test_split(product_domain.products, 0.3, seed=3)
        assert [p.product_id for p in first[1]] == [p.product_id for p in second[1]]
