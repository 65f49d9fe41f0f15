(** Einsum-to-descriptor compiler for programmable accelerators.

    A programmable netlist ({!Tl_templates.Accel.generate} with
    [~programmable]) fixes the array geometry, dataflow classes and
    interconnect, but keeps every schedule table in writable descriptor
    memories.  [compile ~target request] re-runs scheduling in software
    ({!Tl_templates.Layout}), checks that [request] is compatible with
    [target] — same netlist structure, schedule and data fitting the
    declared capacity envelope — and emits a {!Tl_templates.Layout.program}
    that {!Tl_templates.Accel.load_program} installs in a handful of
    memory writes, no re-elaboration.

    Compatibility (v1) is exact structural equality: the request must
    elaborate the same canonical structure string as the target's
    generating design.  In practice this admits any einsum differing only
    in the {e temporal} (unselected) extents — e.g. one 4×4 output-
    stationary GEMM array serves every reduction depth that fits the
    envelope — while spatial-extent or dataflow changes are rejected with
    a typed {!error}, never a malformed program. *)

type error =
  | Not_programmable
      (** target was generated without [~programmable] *)
  | Unsupported_design of string
      (** the request has no netlist template, or scheduling it failed
          (footprint overflow, drain-chain conflict, …) *)
  | Tensor_mismatch of { target : int; requested : int }
      (** tensor counts differ — no positional correspondence exists *)
  | Dataflow_mismatch of { position : int; target : string; requested : string }
      (** tensor [position]'s dataflow class differs, so the fixed
          interconnect cannot realise the request *)
  | Structure_mismatch
      (** dataflows match but the elaborated shapes differ (spatial
          extents, active-PE footprint, chain topology, …) *)
  | Capacity_exceeded of { what : string; need : int; capacity : int }
      (** the schedule or data exceeds the envelope dimension [what];
          schedule length, pass count and input sizes are checked before
          scheduling, so a request whose extents are far over the
          envelope fails in time independent of them *)
  | Width_overflow of { mem : string; value : int; width : int }
      (** an image value does not fit the generated port width (cannot
          occur when the capacity checks pass; kept as a final guarantee
          that a compile success is a load success) *)

val error_to_string : error -> string

val target : rows:int -> cols:int -> data_width:int -> acc_width:int ->
  headroom:int -> Tl_stt.Design.t ->
  Tl_templates.Accel.t * Tl_templates.Layout.envelope
(** A programmable netlist of [design] on a [rows] x [cols] array, powered
    on with its statement's sample data, and its envelope: [headroom]
    times the design's own schedule ({!Tl_templates.Layout.envelope}).
    @raise Tl_templates.Accel.Unsupported when [design] has no netlist
    on the array. *)

val compile : target:Tl_templates.Accel.t -> Tl_stt.Design.t ->
  (Tl_templates.Layout.program, error) result
(** Compile [request] onto [target].  Request tensors are renamed
    positionally onto the target's, so environments keyed by the request's
    own tensor names load directly ([Layout.input.in_tensor] keeps the
    request-side name).  A returned program is guaranteed loadable on
    [target]. *)

val find_design : ?budget:Tl_resil.Budget.t -> target:Tl_templates.Accel.t ->
  Tl_ir.Stmt.t ->
  (Tl_stt.Design.t * Tl_templates.Layout.program,
   (string * error) list) result
(** Sweep every STT candidate for [stmt] ({!Tl_stt.Search.all_designs})
    and return the first that compiles onto [target] — "can this netlist
    run this einsum at all?".  On failure, the per-candidate rejection
    reasons (design name, error), in search order.  [budget] (default
    unlimited) is passed to the search and polled before each candidate;
    @raise Tl_resil.Budget.Expired when it runs out. *)

(** {2 Program codec}

    One-line JSON documents (schema ["tensorlib-program/1"]), carrying
    the full structure string plus its digest so a decoded program is
    integrity-checked before it ever reaches a loader. *)

val schema : string

val program_to_json : Tl_templates.Layout.program -> string
(** The program document, rendered on one line. *)

val program_of_json : string ->
  (Tl_templates.Layout.program, string) result
(** Parse and validate: schema, field types, non-negative values, image
    lengths against the declared total/passes, shape/element agreement,
    an output map that fits [out_shape] ({!Tl_templates.Layout.out_defect}),
    structure-digest integrity.  A program that decodes is well-formed;
    target-dependent checks remain with {!Tl_templates.Accel.load_program}. *)
