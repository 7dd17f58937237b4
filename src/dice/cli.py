"""Command line interface.

Exit codes: 0 success (or verification/requirements pass), 1 failure of a
verification or requirements check, 2 usage error.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .errors import DiceError, EmptyTrace, InvalidConfig, IoFailure
from .harness import (
    MetricsReport,
    RequirementsAssumptions,
    ScenarioConfig,
    chain_figures,
    check_requirements,
    replay_ledger,
    run_scenario,
)
from .workload import calibration_report, generate


@click.group()
def main() -> None:
    """Desk-scale simulator of the DICE roaming-settlement protocol."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Scenario config JSON (defaults apply when omitted).")
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--days", type=int, default=None, help="Override the horizon in days.")
@click.option("--mode", type=click.Choice(["lbo", "hr"]), default=None)
@click.option("--dump-proofs", type=click.Path(), is_flag=False, flag_value="proofs.jsonl",
              default=None, help="Write accepted proofs as JSON-Lines (optionally to FILE).")
@click.option("--dump-events", type=click.Path(), is_flag=False, flag_value="events.jsonl",
              default=None, help="Write session events as JSON-Lines (optionally to FILE).")
def simulate(config_path, out_dir, seed, days, mode, dump_proofs, dump_events) -> None:
    """Run a full scenario and write report.json, ledger.jsonl, settlement.csv."""
    overrides = {k: v for k, v in (("seed", seed), ("days", days), ("mode", mode)) if v is not None}
    try:
        config = ScenarioConfig.from_json_file(config_path, **overrides)
        report = run_scenario(config, out_dir, dump_proofs=dump_proofs, dump_events=dump_events)
    except InvalidConfig as exc:
        raise click.UsageError(str(exc))
    except IoFailure as exc:
        click.echo(f"i/o failure: {exc}", err=True)
        sys.exit(1)
    click.echo(
        f"sessions={report.sessions_completed} onchain={report.onchain_tx_total} "
        f"offchain={report.offchain_proofs_total} -> {out_dir}"
    )


@main.group()
def ledger() -> None:
    """Ledger file tools."""


@ledger.command("verify")
@click.option("--path", required=True, type=click.Path())
def ledger_verify(path) -> None:
    """Recompute all hashes, signatures and the token supply of a chain, and
    report what was checked."""
    try:
        result, bank = replay_ledger(path)
    except IoFailure as exc:
        click.echo(f"i/o failure: {exc}", err=True)
        sys.exit(1)
    if result.valid:
        click.echo("valid")
    else:
        where = "?" if result.first_invalid_height is None else result.first_invalid_height
        click.echo(f"INVALID at height {where}: {result.reason}")
    if bank is not None:
        checked = chain_figures(bank)
        click.echo(f"blocks: {checked['blocks']}")
        click.echo("txs: " + ", ".join(f"{kind} {n}" for kind, n in checked["onchain_tx_by_kind"].items()))
        click.echo(f"signatures verified: {checked['onchain_tx_total']}")
        click.echo(f"lots replayed: {checked['lots_replayed']}")
        for issuer, supply in checked["supply_by_issuer"].items():
            click.echo(f"issuer {issuer}: " + ", ".join(f"{k} {v}" for k, v in supply.items()))
    sys.exit(result.exit_code)


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path())
@click.option("--tps-capacity", type=int, default=None, help="Defaults to the report's config value.")
@click.option("--concentration-hours", type=float, default=None, help="Defaults to the report's config value.")
@click.option("--traffic-tb-per-day", type=float, default=None,
              help="Assumed visited-MNO daily roamer traffic, in terabytes "
                   f"[default: {RequirementsAssumptions.visited_mno_daily_bytes / 1e12:g}].")
@click.option("--avg-mno-factor", type=float, default=None,
              help="Average-member size ratio; defaults to the report's config value.")
def requirements(report_path, tps_capacity, concentration_hours, traffic_tb_per_day,
                 avg_mno_factor) -> None:
    """Project the run to consortium scale and check TPS feasibility."""
    if traffic_tb_per_day is not None and not (math.isfinite(traffic_tb_per_day) and traffic_tb_per_day >= 0):
        raise click.BadParameter("must be finite and >= 0", param_hint="'--traffic-tb-per-day'")
    assumptions = RequirementsAssumptions(
        tps_capacity=tps_capacity,
        concentration_hours=concentration_hours,
        avg_mno_factor=avg_mno_factor,
    )
    if traffic_tb_per_day is not None:
        assumptions.visited_mno_daily_bytes = int(traffic_tb_per_day * 1e12)
    try:
        report = MetricsReport.from_json_file(report_path)
    except (OSError, ValueError, TypeError, InvalidConfig) as exc:
        click.echo(f"cannot read report: {exc}", err=True)
        sys.exit(1)
    try:
        verdict = check_requirements(report, assumptions)
    except InvalidConfig as exc:  # the report's config is valid, so an override is not
        raise click.UsageError(str(exc))
    click.echo(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    sys.exit(0 if verdict.passed else 1)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
def calibrate(config_path) -> None:
    """Generate the workload only and print its calibration statistics."""
    try:
        trace = generate(ScenarioConfig.from_json_file(config_path).workload())
        stats = calibration_report(trace)
    except InvalidConfig as exc:
        raise click.UsageError(str(exc))
    except (EmptyTrace, DiceError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(json.dumps(stats.to_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
