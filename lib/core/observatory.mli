open Ssmst_obs

(** Scenario drivers for [msst report]: run one of the standard scenarios
    — construct, verify, stabilize, campaign — with the full observatory
    attached (the phase ledger, log-bucketed histograms, online invariant
    monitors) and return one {!Report.t} combining engine metrics,
    histograms, the phase ledger and the monitor verdicts. *)

type params = {
  family : string;
  n : int;
  seed : int;
  faults : int;
  async : bool;
  epochs : int;  (** stabilize: fault-injection epochs *)
  trials : int;  (** campaign: seeds per fault model *)
  max_rounds : int;  (** detection budget *)
  domains : int;
      (** sync-round worker domains for verify/stabilize/campaign; results
          are byte-identical at every value, only telemetry sees it *)
  compact_c : int;
  distance_c : int;
}

val default_params : params

val scenario_names : string list
(** ["construct"; "verify"; "stabilize"; "campaign"] *)

val run : Telemetry.t -> scenario:string -> params -> Report.t
(** [run ledger ~scenario p] runs the named scenario with [ledger]
    installed on the probe hook, then uninstalls it and sets it as the
    report's phases.  The scenario's phases: [construct] (SYNC_MST's
    fragment levels and the marker assembly) in every scenario,
    [settle]/[inject]/[detect] in verify, [epoch k] in stabilize and
    [campaign-trial i] in campaign.
    @raise Invalid_argument on an unknown scenario. *)
