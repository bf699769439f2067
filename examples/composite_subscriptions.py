#!/usr/bin/env python3
"""Composite subscriptions: multi-attribute AND, disjunctive OR grants.

The paper's technical report extends the key spaces to complex filters
combining constraints with Boolean AND / OR.  This walk-through shows
both on a job-market topic with two securable numeric attributes:

- **AND**: a filter constraining salary AND experience can only open
  events where *both* attributes fall in range (the event is locked under
  the combined component key);
- **OR**: a disjunctive grant (junior OR principal band) opens an event
  when *either* clause matches;
- publisher-declared **extra locks** allow single-attribute access for
  coarser subscriber classes.

Run:  python examples/composite_subscriptions.py
"""

from repro.core import (
    KDC,
    CompositeKeySpace,
    NumericKeySpace,
    Publisher,
    Subscriber,
)
from repro.siena import Constraint, Event, Filter, Op


def build_kdc() -> KDC:
    kdc = KDC()
    kdc.register_topic(
        "job-offers",
        CompositeKeySpace(
            {
                "salary": NumericKeySpace("salary", 512),     # in k$/year
                "experience": NumericKeySpace("experience", 64),
            }
        ),
    )
    return kdc


def offer(publisher, salary, experience, details):
    return publisher.publish(
        Event(
            {
                "topic": "job-offers",
                "salary": salary,
                "experience": experience,
                "details": details,
            },
            publisher="recruiter",
        ),
        secret_attributes={"details"},
    )


def main() -> None:
    kdc = build_kdc()
    lookup = lambda topic: kdc.config_for(topic).schema  # noqa: E731
    recruiter = Publisher("recruiter", kdc)

    # --- AND: both attributes must match -------------------------------
    mid_level = Subscriber("mid-level")
    mid_level.add_grant(
        kdc.authorize(
            "mid-level",
            Filter.of(
                Constraint("topic", Op.EQ, "job-offers"),
                Constraint("salary", Op.GE, 100),
                Constraint("salary", Op.LE, 200),
                Constraint("experience", Op.GE, 3),
                Constraint("experience", Op.LE, 10),
            ),
        )
    )
    fits = offer(recruiter, 150, 5, "senior backend role @ acme")
    wrong_pay = offer(recruiter, 300, 5, "principal role @ bigco")
    wrong_exp = offer(recruiter, 150, 20, "veteran-only role")

    print("AND subscriber (salary 100-200 AND experience 3-10):")
    # Each offer is received once: a repeated (origin, sequence) is a
    # duplicate to the subscriber and would come back as None.
    opened = {}
    for name, sealed in [("fits", fits), ("wrong pay", wrong_pay),
                         ("wrong exp", wrong_exp)]:
        result = opened[name] = mid_level.receive(sealed, lookup)
        payload = result.event["details"] if result else "<locked>"
        print(f"  {name:<10} -> {payload}")
    assert opened["fits"] is not None
    assert opened["wrong pay"] is None
    assert opened["wrong exp"] is None

    # --- OR: a disjunctive grant over two clauses -----------------------
    barbell = Subscriber("barbell")
    barbell.add_grant(
        kdc.authorize(
            "barbell",
            [
                Filter.of(  # junior band
                    Constraint("topic", Op.EQ, "job-offers"),
                    Constraint("salary", Op.LE, 90),
                ),
                Filter.of(  # principal band
                    Constraint("topic", Op.EQ, "job-offers"),
                    Constraint("salary", Op.GE, 250),
                ),
            ],
        )
    )
    junior = offer(recruiter, 60, 1, "junior role")
    principal = offer(recruiter, 300, 12, "principal role")
    middle = offer(recruiter, 150, 5, "mid role")

    print("\nOR subscriber (salary <= 90 OR salary >= 250):")
    opened = {}
    for name, sealed in [("junior", junior), ("principal", principal),
                         ("middle", middle)]:
        result = opened[name] = barbell.receive(sealed, lookup)
        payload = result.event["details"] if result else "<locked>"
        print(f"  {name:<10} -> {payload}")
    assert opened["junior"] is not None
    assert opened["principal"] is not None
    assert opened["middle"] is None

    # --- Extra locks: publisher-declared single-attribute access --------
    # The recruiter wants salary-band watchers (no experience constraint)
    # to read this one offer too, so it adds a salary-only lock.
    watcher = Subscriber("salary-watcher")
    watcher.add_grant(
        kdc.authorize(
            "salary-watcher",
            Filter.of(
                Constraint("topic", Op.EQ, "job-offers"),
                Constraint("salary", Op.GE, 100),
                Constraint("salary", Op.LE, 200),
            ),
        )
    )
    open_offer = recruiter.publish(
        Event(
            {"topic": "job-offers", "salary": 150, "experience": 5,
             "details": "broadly visible role"},
            publisher="recruiter",
        ),
        secret_attributes={"details"},
        extra_lock_subsets=[("salary",)],
    )
    result = watcher.receive(open_offer, lookup)
    print("\nsalary watcher on the extra-lock offer ->", result.event["details"])
    assert result is not None
    # ... but the default (both-attributes) offers stay out of reach:
    # the watcher's grant carries the experience ROOT key, so plain offers
    # are readable only when its OWN constraints match -- `fits` does.
    assert watcher.receive(fits, lookup) is not None
    assert watcher.receive(wrong_pay, lookup) is None


if __name__ == "__main__":
    main()
