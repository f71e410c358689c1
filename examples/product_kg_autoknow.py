"""Text-rich KG construction for products (the Fig. 4(b) architecture).

Run:  python examples/product_kg_autoknow.py

Builds a synthetic product domain (deep noisy taxonomy, verbose profiles,
noisy catalog, behavior logs), then runs the second-generation stack:
OpenTag extraction, TXtract type-aware scaling, taxonomy enrichment from
customer behavior, knowledge cleaning, and the AutoKnow-style end-to-end
orchestration that assembles the text-rich KG.
"""

from repro.datagen.behavior import generate_behavior
from repro.datagen.products import ProductDomainConfig, build_product_domain
from repro.products.autoknow import AutoKnow
from repro.products.opentag import OpenTagModel, train_test_split
from repro.products.taxonomy_mining import HypernymMiner
from repro.products.txtract import TXtractModel


def main() -> None:
    domain = build_product_domain(ProductDomainConfig(n_products=400, seed=42))
    behavior = generate_behavior(domain, seed=43)
    print(f"domain: {len(domain.products)} products, {len(domain.types())} types")
    print(f"taxonomy: {domain.taxonomy.stats()}")

    # --- OpenTag on one type (Sec. 3.1) ----------------------------------
    coffee = domain.by_type("Coffee")
    train, test = train_test_split(coffee, test_fraction=0.3, seed=1)
    opentag = OpenTagModel(attributes=("flavor", "roast"), n_epochs=8).fit(train)
    print(f"\nOpenTag on Coffee flavor/roast: F1 = {opentag.micro_f1(test):.3f}")
    sample = test[0]
    print(f"  profile: {sample.title_text}")
    print(f"  extracted: {opentag.extract(sample)}")

    # --- TXtract across all types (Sec. 3.3) -----------------------------
    attributes = tuple(domain.attributes())
    train_all, test_all = train_test_split(domain.products, test_fraction=0.3, seed=2)
    pooled = OpenTagModel(attributes=attributes, n_epochs=5).fit(train_all)
    txtract = TXtractModel(attributes=attributes, n_epochs=5).fit(train_all)
    print(
        f"\none-size-fits-all: pooled OpenTag F1 = {pooled.micro_f1(test_all):.3f}, "
        f"TXtract F1 = {txtract.micro_f1(test_all):.3f}"
    )

    # --- taxonomy enrichment from behavior (Sec. 3.1) --------------------
    mined = HypernymMiner().mine(domain, behavior)
    print(f"\nmined hypernym edges (top 5 of {len(mined)}):")
    for edge in mined[:5]:
        print(f"  {edge.child} -> {edge.parent}  (score {edge.score:.2f})")

    # --- the whole AutoKnow pipeline (Sec. 3.5) ---------------------------
    print("\nrunning AutoKnow-style self-driving collection...")
    autoknow = AutoKnow(n_epochs=5)
    report = autoknow.run(domain, behavior=behavior)
    print(f"  catalog triples:      {report.n_catalog_triples}")
    print(f"  final triples:        {report.n_final_triples}  (x{report.growth_factor:.2f})")
    print(f"  types covered:        {report.n_types_covered}")
    print(f"  taxonomy edges added: {report.n_taxonomy_edges_added}")
    print(f"  added-knowledge accuracy: {report.final_accuracy:.3f}")

    # Query the resulting text-rich KG: products are entities, values triples.
    kg = autoknow.kg_
    flavors = sorted({triple.object for triple in kg.query(predicate="flavor")})
    print(f"\ndistinct flavor values in the KG: {flavors[:5]} ...")
    product = domain.products[0]
    print(f"values for {product.product_id} ({kg.entity(product.product_id).entity_class}):")
    for triple in kg.query(subject=product.product_id):
        sources = ", ".join(record.source for record in kg.provenance(triple))
        print(f"  {triple.predicate} = {triple.object}  [{sources}]")

    # --- the e-business features the KG feeds (Sec. 3.2) -----------------
    from repro.products.companion import CompanionRecommender
    from repro.products.search import ProductSearch

    search = ProductSearch(kg)
    print('\nsearch: "mocha coffee"')
    hits = search.search("mocha coffee", top_k=3)
    for hit in hits:
        print(f"  {hit.score:4.1f}  {hit.title}  {list(hit.matched)}")
    if len(hits) >= 2:
        print("\nproduct comparison:")
        for row in search.compare([hits[0].topic_id, hits[1].topic_id]):
            print("  " + " | ".join(str(cell) for cell in row))

    recommender = CompanionRecommender.build(domain, behavior)
    query = domain.by_type("Coffee")[0]
    print(f"\nrecommendations for {query.title_text!r}:")
    for rec in recommender.substitutes(query.product_id, top_k=2):
        print(f"  substitute: {rec.product_id}  ({rec.reason})")
    for rec in recommender.complements(query.product_id):
        print(f"  complement: {rec.product_id}  ({rec.reason})")


if __name__ == "__main__":
    main()
