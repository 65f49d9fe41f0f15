(** Whole-design dataflow analysis and the paper's naming scheme.

    A design = a statement + an STT.  Analysis classifies every tensor
    (inputs and output) and derives the name used throughout §VI:
    [<selected iterators>-<letter per tensor>] with inputs first and the
    output last, e.g. [KCX-SST] (output-stationary Conv2D systolic array).  *)

type role = Input | Output

type tensor_info = {
  access : Tl_ir.Access.t;
  role : role;
  dataflow : Dataflow.t;
}

type t = {
  transform : Transform.t;
  tensors : tensor_info list;  (** inputs in formula order, output last *)
  name : string;
}

val analyze : Transform.t -> t
(** Classifies every tensor with {!Reuse.classify_matrix}, the classifier
    the sweeps of {!Search} run.  @raise Reuse.Overflow when a tensor's
    analysis does not fit native ints. *)

val of_dataflows : Transform.t -> Dataflow.t list -> t
(** [of_dataflows t dfs] is the design of [t] whose tensors (inputs in
    formula order, output last) carry [dfs], named from them.  It
    classifies nothing: [of_dataflows t dfs = analyze t] exactly when [dfs]
    are the dataflows {!analyze} finds, as the sweeps of {!Search} know
    them to be.  @raise Invalid_argument when [dfs] has the wrong
    length. *)

val letters : t -> string
(** Just the dataflow letters, e.g. ["SST"]. *)

val output_info : t -> tensor_info
val input_infos : t -> tensor_info list

val find_tensor : t -> string -> tensor_info
(** @raise Not_found *)

val netlist_supported : t -> bool
(** Whether the structural RTL backend has templates for every tensor's
    dataflow in this design (the performance and cost models support all
    designs).  Unsupported today: 2-D systolic+multicast *outputs* and
    full-reuse tensors. *)

val pp : Format.formatter -> t -> unit
val pp_report : Format.formatter -> t -> unit
(** Multi-line report: transformation matrix, per-tensor reuse analysis. *)
