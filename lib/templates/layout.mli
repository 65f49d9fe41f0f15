(** Pure schedule-table computation: the images behind every schedule ROM
    of {!Accel.generate}, computed without elaborating hardware.

    [build design ~rows ~cols] re-runs the scheduling pass and produces,
    for each schedule-table memory of the corresponding netlist, its name
    and contents ({!field-l_mems}), plus the data-memory layout, the
    output-bank map and a canonical {e structure} string capturing the
    netlist shape independent of table contents.  Two designs with equal
    structure strings elaborate isomorphic netlists that differ only in
    table images and memory sizes — exactly the condition under which a
    program for one can run on a programmable netlist generated from the
    other (see {!Tl_compile}).

    Builders mirror [accel.ml] line for line; the correspondence is locked
    by a sync test comparing [build] output against the ROM images of a
    freshly generated circuit. *)

exception Unsupported of string
(** Same conditions as {!Accel.Unsupported} (missing template, footprint
    overflow, drain-chain/span conflict, collector overflow). *)

type domain = Cycle | Pass
(** Index domain of a schedule table: cycle-indexed tables have natural
    length [l_total]; pass-indexed ones [l_passes + 1]. *)

type envelope = {
  env_cycles : int;  (** max schedule length (cycle-table capacity) *)
  env_passes : int;  (** max pass count (pass tables hold [env_passes+1]) *)
  env_elems : int;   (** max elements per input data memory *)
  env_bank : int;    (** max cells per collector bank *)
}
(** Capacity envelope of a programmable netlist: every schedule memory is
    sized by these bounds (and addressed at envelope-derived widths), so
    any schedule fitting the envelope loads without re-elaboration. *)

type mem = { m_name : string; m_domain : domain; m_image : int array }

type input = {
  in_tensor : string;  (** request-side tensor name (environment key) *)
  in_mem : string;     (** target-side data-memory key *)
  in_elems : int;
  in_shape : int array;
}

type t = {
  l_design : Tl_stt.Design.t;
  l_rows : int;
  l_cols : int;
  l_total : int;   (** controller cycle count (matches [Accel.total_cycles]) *)
  l_passes : int;
  l_events : int;  (** MAC events (= statement domain size) *)
  l_structure : string;
  l_mems : mem list;
  l_inputs : input list;
  l_banks : (string * int * int) list;
      (** (bank name, declared capacity, cells used) *)
  l_out : (int list * (string * int)) list;
      (** output element index → (bank name, bank address), sorted *)
  l_out_shape : int array;
}

type program = {
  p_name : string;
  p_structure : string;
  p_total : int;
  p_passes : int;
  p_events : int;
  p_images : (string * (domain * int array)) list;
  p_inputs : input list;
  p_out : (int list * (string * int)) list;
  p_out_shape : int array;
}
(** A loadable program: the descriptor-memory images plus data-memory
    layout, detached from the design that produced it (serialised by
    {!Tl_compile.program_to_json}, loaded by {!Accel.load_program}). *)

val max_dt : Tl_stt.Design.t -> int
val total_cycles : Schedule.t -> rows:int -> Tl_stt.Design.t -> int
(** The controller cycle count [Accel.generate] uses for this schedule. *)

val schedule_size : Tl_stt.Design.t -> rows:int -> cols:int -> int * int
(** [(l_total, l_passes)] of [build design ~rows ~cols], read off the
    schedule's {!Schedule.frame} in O(depth): no events are built, so the
    cost does not grow with the extents.
    @raise Unsupported when the schedule footprint does not fit the
    array, as {!build} would. *)

val build : ?rename:(string -> string) -> Tl_stt.Design.t ->
  rows:int -> cols:int -> t
(** Compute every schedule-table image for [design] on a [rows]×[cols]
    array.  [rename] maps the design's tensor names to the target
    netlist's (positional renaming when compiling a request whose tensors
    are named differently); memory names, counter names and [in_mem] use
    renamed names, while [in_tensor] keeps the request-side name.
    @raise Unsupported as {!Accel.generate} would. *)

val structure_digest : string -> string
(** Stable 32-hex digest of a structure string (for serialisation). *)

val to_program : ?name:string -> t -> program
(** Strip a layout down to its loadable program (default name: the
    design's dataflow name). *)

val domain_string : domain -> string
