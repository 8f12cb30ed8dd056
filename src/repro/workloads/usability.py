"""The usability study (paper §5.2.3): subjects, tasks, questionnaires.

What the paper measured with 20 human subjects is substituted as follows:

* **Task execution** — each simulated pair of subjects really runs the
  20 tasks of Table 2 twice (switching roles between sessions, as the
  paper's protocol prescribes) against the full simulated stack; task
  success is verified mechanically, re-validating the paper's 100 %
  completion observation end-to-end.
* **Questionnaire** — human opinions cannot be simulated, so the Likert
  responses are drawn from a response model calibrated to the marginal
  distributions the paper reports in Table 4 (quota-exact: Table 4's
  percentages have 2.5 % granularity = 1/40 responses, so the generated
  response sets reproduce the reported distributions exactly).  What IS
  real here is the analysis pipeline: inversion of negative Likert
  items, merging with their positive twins, and the median / mode /
  percentage summaries — the same computation the authors describe.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .environments import build_lan
from .scenarios import ScenarioRunner, TaskResult

__all__ = [
    "LIKERT_LEVELS",
    "TABLE3_QUESTIONS",
    "TABLE4_DISTRIBUTIONS",
    "QuestionSummary",
    "generate_questionnaire_responses",
    "invert_negative_response",
    "analyze_questionnaire",
    "run_pair_study",
    "run_usability_study",
    "StudyResult",
]

#: Five-point Likert scale, 1 = Strongly disagree ... 5 = Strongly agree.
LIKERT_LEVELS = (
    "Strongly disagree",
    "Disagree",
    "Neither agree nor disagree",
    "Agree",
    "Strongly Agree",
)

#: Paper Table 3: the 16 close-ended questions, grouped in positive /
#: inverted-negative pairs.  Subjects saw them in random order.
TABLE3_QUESTIONS: List[Tuple[str, str]] = [
    ("Q1-P", "It is helpful to use RCB to coordinate a meeting spot via Google Maps."),
    ("Q1-N", "It is useless to use RCB to coordinate a meeting spot via Google Maps."),
    ("Q2-P", "It is helpful to use RCB to perform online co-shopping at Amazon.com."),
    ("Q2-N", "It is useless to use RCB to perform online co-shopping at Amazon.com."),
    ("Q3-P", "It is easy to use RCB to host the Google Maps scenario."),
    ("Q3-N", "It is hard to use RCB to host the Google Maps scenario."),
    ("Q4-P", "It is easy to use RCB to host the online co-shopping scenario."),
    ("Q4-N", "It is hard to use RCB to host the online co-shopping scenario."),
    ("Q5-P", "It is easy to participate in the RCB Google Maps scenario."),
    ("Q5-N", "It is hard to participate in the RCB Google Maps scenario."),
    ("Q6-P", "It is easy to participate in the RCB online co-shopping scenario."),
    ("Q6-N", "It is hard to participate in the RCB online co-shopping scenario."),
    ("Q7-P", "It would be helpful to use RCB on other co-browsing activities."),
    ("Q7-N", "It wouldn't be helpful to use RCB on other co-browsing activities."),
    ("Q8-P", "I would like to use RCB in the future."),
    ("Q8-N", "I wouldn't like to use RCB in the future."),
]

#: Paper Table 4: merged response distributions (percent of the 40
#: responses per merged question: 20 subjects x {positive, inverted
#: negative}), in scale order 1..5.
TABLE4_DISTRIBUTIONS: Dict[str, Tuple[float, float, float, float, float]] = {
    "Q1": (0.0, 0.0, 7.5, 52.5, 40.0),
    "Q2": (0.0, 0.0, 7.5, 52.5, 40.0),
    "Q3": (5.0, 0.0, 5.0, 50.0, 40.0),
    "Q4": (0.0, 2.5, 7.5, 62.5, 27.5),
    "Q5": (0.0, 2.5, 0.0, 62.5, 35.0),
    "Q6": (0.0, 5.0, 2.5, 57.5, 35.0),
    "Q7": (0.0, 2.5, 5.0, 55.0, 37.5),
    "Q8": (0.0, 0.0, 15.0, 55.0, 30.0),
}

SUBJECTS = 20  # 11 female, 9 male in the paper
RESPONSES_PER_QUESTION = 2 * SUBJECTS  # positive + inverted negative item


def invert_negative_response(score: int) -> int:
    """Invert a negative Likert item about the neutral mark (paper
    Table 4 caption): strongly agree <-> strongly disagree, etc."""
    if not 1 <= score <= 5:
        raise ValueError("Likert scores are 1..5, got %r" % (score,))
    return 6 - score


def generate_questionnaire_responses(seed: int = 2009) -> Dict[str, Dict[str, List[int]]]:
    """Raw per-item responses for 20 subjects, quota-matched to Table 4.

    Returns ``{merged question: {"P": [...20 scores...], "N": [...]}}``
    where the N list holds the *raw* (uninverted) responses to the
    negative item.  Which subject produces which response is randomized
    (seeded), mirroring that individual subjects varied; the marginal
    counts are exact.
    """
    rng = random.Random(seed)
    responses: Dict[str, Dict[str, List[int]]] = {}
    for question, percentages in TABLE4_DISTRIBUTIONS.items():
        counts = [round(p / 100.0 * RESPONSES_PER_QUESTION) for p in percentages]
        if sum(counts) != RESPONSES_PER_QUESTION:
            raise ValueError("Table 4 row for %s is not quota-exact" % question)
        merged_scores: List[int] = []
        for score, count in enumerate(counts, start=1):
            merged_scores.extend([score] * count)
        rng.shuffle(merged_scores)
        positive = merged_scores[:SUBJECTS]
        # The other half were answers to the inverted negative item;
        # store them un-inverted, as a subject would have ticked them.
        negative_raw = [invert_negative_response(s) for s in merged_scores[SUBJECTS:]]
        responses[question] = {"P": positive, "N": negative_raw}
    return responses


class QuestionSummary:
    """One row of Table 4."""

    __slots__ = ("question", "percentages", "median", "mode")

    def __init__(self, question: str, percentages: Tuple[float, ...], median: str, mode: str):
        self.question = question
        self.percentages = percentages
        self.median = median
        self.mode = mode

    def __repr__(self):
        return "QuestionSummary(%s, median=%s)" % (self.question, self.median)


def analyze_questionnaire(
    responses: Dict[str, Dict[str, List[int]]]
) -> List[QuestionSummary]:
    """The paper's analysis: invert negatives, merge, summarize.

    Ordinal data without interval scales, so the summary uses median and
    mode plus response percentages (paper §5.2.3(4)).
    """
    summaries = []
    for question in sorted(responses):
        item_sets = responses[question]
        merged = list(item_sets["P"]) + [
            invert_negative_response(score) for score in item_sets["N"]
        ]
        total = len(merged)
        percentages = tuple(
            round(100.0 * sum(1 for s in merged if s == level) / total, 1)
            for level in range(1, 6)
        )
        ordered = sorted(merged)
        midpoint = ordered[(total - 1) // 2] if total % 2 else None
        if total % 2 == 0:
            low = ordered[total // 2 - 1]
            high = ordered[total // 2]
            median_score = (low + high) / 2.0
        else:
            median_score = float(midpoint)
        # Medians landing between two levels are reported at the lower
        # agreeing level, as Likert medians conventionally are.
        median = LIKERT_LEVELS[int(round(median_score)) - 1]
        mode_level = max(range(1, 6), key=lambda level: merged.count(level))
        summaries.append(
            QuestionSummary(question, percentages, median, LIKERT_LEVELS[mode_level - 1])
        )
    return summaries


# -- task-execution side of the study -----------------------------------------------


class StudyResult:
    """Aggregate outcome of the simulated usability study."""

    def __init__(
        self,
        pair_results: List[List[TaskResult]],
        summaries: List[QuestionSummary],
    ):
        self.pair_results = pair_results
        self.summaries = summaries

    @property
    def tasks_attempted(self) -> int:
        """Total Table-2 tasks attempted across sessions."""
        return sum(len(session) for session in self.pair_results)

    @property
    def tasks_completed(self) -> int:
        """Tasks whose verified effect held."""
        return sum(
            sum(1 for task in session if task.completed) for session in self.pair_results
        )



def run_pair_study(pair_index: int = 0, poll_interval: float = 1.0) -> List[List[TaskResult]]:
    """One pair of subjects: two sessions with roles switched."""
    sessions = []
    for role_swap in (False, True):
        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        runner = ScenarioRunner(testbed, poll_interval=poll_interval)
        bob = testbed.host_browser
        alice = testbed.participant_browser
        # Role switching swaps which human plays Bob; structurally the
        # host browser still hosts, so the swap exercises both subjects
        # in both roles across the two sessions.
        results = testbed.run(runner.run_session(bob, alice))
        sessions.append(results)
        del role_swap
    return sessions


def run_usability_study(
    pairs: int = 10, poll_interval: float = 1.0, seed: int = 2009
) -> StudyResult:
    """The full §5.2.3 protocol: 10 pairs x 2 sessions x 20 tasks, plus
    the questionnaire analysis."""
    all_sessions: List[List[TaskResult]] = []
    for pair_index in range(pairs):
        all_sessions.extend(run_pair_study(pair_index, poll_interval))
    responses = generate_questionnaire_responses(seed)
    summaries = analyze_questionnaire(responses)
    return StudyResult(all_sessions, summaries)
