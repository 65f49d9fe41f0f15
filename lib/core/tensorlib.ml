(** TensorLib public facade.

    One-stop API over the framework's layers; see the per-module docs for
    details.  The typical flow is:

    {[
      let stmt   = Tensorlib.Workloads.gemm ~m:64 ~n:64 ~k:64 in
      let design = Tensorlib.design_of_name stmt "MNK-SST" in
      let env    = Tensorlib.Exec.alloc_inputs stmt in
      let acc    = Tensorlib.generate ~rows:8 ~cols:8 design env in
      let out    = Tensorlib.Accel.execute acc in
      print_string (Tensorlib.Accel.verilog acc)
    ]} *)

(* Linear algebra substrate *)
module Rat = Tl_linalg.Rat
module Vec = Tl_linalg.Vec
module Mat = Tl_linalg.Mat

(* Tensor-algebra IR *)
module Iter = Tl_ir.Iter
module Tiling = Tl_ir.Tiling
module Access = Tl_ir.Access
module Stmt = Tl_ir.Stmt
module Dense = Tl_ir.Dense
module Exec = Tl_ir.Exec
module Workloads = Tl_ir.Workloads
module Parse = Tl_ir.Parse

(* Space-time transformation and dataflow analysis *)
module Dataflow = Tl_stt.Dataflow
module Transform = Tl_stt.Transform
module Reuse = Tl_stt.Reuse
module Design = Tl_stt.Design
module Search = Tl_stt.Search
module Signature = Tl_stt.Signature

(* Hardware DSL *)
module Signal = Tl_hw.Signal
module Circuit = Tl_hw.Circuit
module Verilog = Tl_hw.Verilog
module Sim = Tl_hw.Sim
module Vcd = Tl_hw.Vcd
module Activity = Tl_hw.Activity
module Rewrite = Tl_hw.Rewrite

(* Static analysis (lint) *)
module Lint = struct
  module Finding = Tl_lint.Finding
  module Netlist = Tl_lint.Netlist_lint
  module Design = Tl_lint.Design_lint
end

(* Abstract interpretation: fixpoint engine, proof rules, narrowing *)
module Absint = struct
  module Av = Tl_absint.Av
  module Engine = Tl_absint.Engine
  module Stream = Tl_absint.Stream
  module Proof = Tl_absint.Proof
  module Narrow = Tl_absint.Narrow
  module Report = Tl_absint.Report
end

(* Hardware templates and generation *)
module Pe_modules = Tl_templates.Pe_modules
module Reduce_tree = Tl_templates.Reduce_tree
module Schedule = Tl_templates.Schedule
module Topology = Tl_templates.Topology
module Accel = Tl_templates.Accel
module Harden = Tl_templates.Harden
module Layout = Tl_templates.Layout

(* Runtime programming: einsum → descriptor-memory program *)
module Compile = Tl_compile.Compile

(* Fault injection and resilience *)
module Fault = Tl_fault.Fault
module Abft = Tl_fault.Abft
module Campaign = Tl_fault.Campaign

(* Parallel work pool *)
module Par = Tl_par

(* Software-layer resilience: budgets, retries, chaos *)
module Resil = struct
  module Budget = Tl_resil.Budget
  module Retry = Tl_resil.Retry
  module Chaos = Tl_resil.Chaos
end

(* Observability: counter validation, measured-activity power, tracing *)
module Obs = struct
  module Counters = Tl_obs.Counters
  module Power = Tl_obs.Power
  module Trace = Tl_obs.Trace
end

(* Models and exploration *)
module Perf = Tl_perf.Perf_model
module Metrics = Tl_perf.Metrics
module Inventory = Tl_cost.Inventory
module Asic = Tl_cost.Asic
module Fpga = Tl_cost.Fpga
module Enumerate = Tl_dse.Enumerate
module Explore = Tl_dse.Explore
module Network = Tl_dse.Network

(* Persistent design store + line-oriented JSON *)
module Store = Tl_store.Store
module Json = Tl_store.Json
module Baselines = Tl_baselines.Baselines

(* The request path of [tensorlib serve] *)
module Serve = Tl_serve.Serve

let design_of_name = Search.find_design_exn
let analyze stmt ~select ~matrix =
  Design.analyze (Transform.by_names stmt select ~matrix)

let generate = Accel.generate
let simulate = Accel.execute
let evaluate_performance = Perf.evaluate
let evaluate_asic = Asic.evaluate

let version = "1.0.0"
