"""Tests for testbeds, the Table 2 scenario, and the usability study."""

import pytest

from repro.workloads import (
    LIKERT_LEVELS,
    TABLE2_TASKS,
    TABLE3_QUESTIONS,
    TABLE4_DISTRIBUTIONS,
    ScenarioRunner,
    analyze_questionnaire,
    build_lan,
    build_wan,
    generate_questionnaire_responses,
    invert_negative_response,
    run_pair_study,
)


class TestEnvironments:
    def test_lan_testbed_shape(self):
        testbed = build_lan(participants=2)
        assert testbed.environment == "lan"
        assert len(testbed.participant_browsers) == 2
        assert testbed.host_browser.host.segment == "campus"
        assert testbed.participant_browser.host.segment == "campus"

    def test_wan_testbed_separate_homes(self):
        testbed = build_wan()
        assert testbed.host_browser.host.segment != testbed.participant_browser.host.segment
        assert testbed.host_browser.host.link.profile.up_bps == 384e3

    def test_sites_deployed(self):
        testbed = build_lan()
        assert testbed.network.lookup("www.google.com") is not None
        assert testbed.network.lookup("google.com") is not None

    def test_optional_services(self):
        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        assert testbed.map_service is not None
        assert testbed.shop_service is not None
        assert testbed.network.lookup("www.google.com") is None

    def test_clear_caches(self):
        testbed = build_lan(deploy_sites=False)
        testbed.host_browser.cache.store("k", "t", b"x")
        testbed.clear_caches()
        assert len(testbed.host_browser.cache) == 0

    def test_realistic_network_model_enabled(self):
        testbed = build_lan()
        assert testbed.network.realistic


class TestScenario:
    def test_table2_has_twenty_tasks(self):
        assert len(TABLE2_TASKS) == 20
        bob_tasks = [t for t, _d in TABLE2_TASKS if t.endswith("-B")]
        alice_tasks = [t for t, _d in TABLE2_TASKS if t.endswith("-A")]
        assert len(bob_tasks) == 10
        assert len(alice_tasks) == 10

    def test_scenario_requires_services(self):
        testbed = build_lan(deploy_sites=False)
        with pytest.raises(ValueError):
            ScenarioRunner(testbed)

    def test_full_session_completes_all_tasks(self):
        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        runner = ScenarioRunner(testbed)
        results = testbed.run(
            runner.run_session(testbed.host_browser, testbed.participant_browser)
        )
        assert len(results) == 20
        assert all(task.completed for task in results), [
            (t.task_id, t.detail) for t in results if not t.completed
        ]
        assert [task.task_id for task in results] == [t for t, _d in TABLE2_TASKS]

    def test_session_leaves_shop_with_one_order(self):
        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        runner = ScenarioRunner(testbed)
        testbed.run(runner.run_session(testbed.host_browser, testbed.participant_browser))
        assert testbed.shop_service.order_count() == 1
        # Only the host ever talked to the shop: one server-side session.
        assert testbed.shop_service.session_count() == 1

    def test_pair_study_runs_two_sessions(self):
        sessions = run_pair_study()
        assert len(sessions) == 2
        for session in sessions:
            assert sum(1 for t in session if t.completed) == 20


class TestQuestionnaire:
    def test_table3_pairs(self):
        assert len(TABLE3_QUESTIONS) == 16
        ids = [qid for qid, _text in TABLE3_QUESTIONS]
        for index in range(1, 9):
            assert "Q%d-P" % index in ids
            assert "Q%d-N" % index in ids

    def test_inversion(self):
        assert invert_negative_response(1) == 5
        assert invert_negative_response(3) == 3
        assert invert_negative_response(5) == 1
        with pytest.raises(ValueError):
            invert_negative_response(0)

    def test_inversion_is_involution(self):
        for score in range(1, 6):
            assert invert_negative_response(invert_negative_response(score)) == score

    def test_distributions_are_quota_exact(self):
        for question, percentages in TABLE4_DISTRIBUTIONS.items():
            assert abs(sum(percentages) - 100.0) < 1e-9, question
            for p in percentages:
                assert (p * 40 / 100) == int(p * 40 / 100), (question, p)

    def test_generated_responses_have_full_population(self):
        responses = generate_questionnaire_responses()
        assert set(responses) == set(TABLE4_DISTRIBUTIONS)
        for item_sets in responses.values():
            assert len(item_sets["P"]) == 20
            assert len(item_sets["N"]) == 20

    def test_analysis_reproduces_table4_exactly(self):
        summaries = analyze_questionnaire(generate_questionnaire_responses())
        assert len(summaries) == 8
        for summary in summaries:
            assert summary.percentages == TABLE4_DISTRIBUTIONS[summary.question]
            assert summary.median == "Agree"
            assert summary.mode == "Agree"

    def test_generation_is_seed_deterministic(self):
        first = generate_questionnaire_responses(seed=1)
        second = generate_questionnaire_responses(seed=1)
        assert first == second
        third = generate_questionnaire_responses(seed=2)
        assert first != third

    def test_different_seeds_same_marginals(self):
        for seed in (1, 2, 3):
            summaries = analyze_questionnaire(generate_questionnaire_responses(seed))
            for summary in summaries:
                assert summary.percentages == TABLE4_DISTRIBUTIONS[summary.question]

    def test_negative_items_stored_uninverted(self):
        """Raw negative-item responses should skew toward disagreement
        (subjects disagree with 'RCB is useless')."""
        responses = generate_questionnaire_responses()
        raw_negatives = [s for sets in responses.values() for s in sets["N"]]
        assert sum(1 for s in raw_negatives if s <= 2) > sum(
            1 for s in raw_negatives if s >= 4
        )

    def test_likert_levels(self):
        assert len(LIKERT_LEVELS) == 5
        assert LIKERT_LEVELS[3] == "Agree"
