"""Experiment workloads: testbeds, Table-2 scenarios, the usability study."""

from .environments import (
    MOBILE_GENERATION_COST_PER_KB,
    Testbed,
    build_lan,
    build_mobile,
    build_wan,
)
from .scenarios import ScenarioRunner, TABLE2_TASKS, TaskResult
from .surf import SurfOperation, SurfReport, generate_trace, run_surf
from .usability import (
    LIKERT_LEVELS,
    QuestionSummary,
    TABLE3_QUESTIONS,
    TABLE4_DISTRIBUTIONS,
    analyze_questionnaire,
    generate_questionnaire_responses,
    invert_negative_response,
    run_pair_study,
)

__all__ = [
    "LIKERT_LEVELS",
    "QuestionSummary",
    "ScenarioRunner",
    "SurfOperation",
    "SurfReport",
    "TABLE2_TASKS",
    "TABLE3_QUESTIONS",
    "TABLE4_DISTRIBUTIONS",
    "TaskResult",
    "Testbed",
    "analyze_questionnaire",
    "MOBILE_GENERATION_COST_PER_KB",
    "build_lan",
    "build_mobile",
    "build_wan",
    "generate_questionnaire_responses",
    "generate_trace",
    "invert_negative_response",
    "run_pair_study",
    "run_surf",
]
