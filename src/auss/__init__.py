"""auss: deterministic multi-agent simulation and evaluation harness for
educational support analytics.

Three coordinating agents (student, educator, institution) exchange typed
triggers over a tick-synchronous event bus while a tabular Q-learning
policy decides interventions; synthetic cohorts with known ground truth
make every reported metric checkable against an oracle.
"""

from .bus import AgentName, Event, EventBus, Subscription, TriggerKind
from .domain import (
    AssessmentRecord,
    Cohort,
    EngagementEvent,
    EventColumns,
    EventKind,
    GroundTruth,
    LearningResource,
    StudentRecord,
    Violation,
    validate_cohort,
)
from .educator import (
    AnswerKey,
    ClassReport,
    GradeResult,
    ItemKind,
    QuizTemplate,
    auto_grade,
    generate_class_report,
    generate_quiz,
    grading_match_rate,
)
from .experiment import (
    EvaluationConfig,
    ExperimentSpec,
    MetricsReport,
    evaluate_metrics,
    replay,
    run_experiment,
    run_sweep,
    simulate,
)
from .institution import (
    LoadReport,
    aggregate_features,
    assess_risk,
    f1_score,
    fit_risk_model,
    load_report,
)
from .policy import (
    EngagementLevel,
    FiniteMDP,
    InterventionAction,
    PerformanceTrend,
    PolicyConfig,
    QTable,
    RiskTier,
    SystemState,
    TransitionSample,
    compute_reward,
    discretize_state,
    q_update,
    select_action,
    train_on_mdp,
)
from .runtime import (
    Agent,
    SchedulerConfig,
    SimulationTranscript,
    measure_phase_latency,
    run,
)
from .student import (
    InteractionMatrix,
    Recommendation,
    fit_predictors,
    recommend_top_k,
)
from .synthetic import GeneratorConfig, export_cohort, generate_cohort, import_cohort

__version__ = "0.1.0"
