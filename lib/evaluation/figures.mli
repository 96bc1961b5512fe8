(** Regeneration of every figure in the paper's evaluation: the Figure 4
    worked example, the Figure 5/6 complexity study, and the Figure 7/8
    accuracy curves. *)

module Suite = Vrp_suite.Suite

(** The paper's Figure 2 program, verbatim in MiniC. *)
val figure2_source : string

type fig4 = {
  ranges : (string * string) list;  (** variable name -> final range *)
  branch_probs : (string * float) list;  (** branch description -> P(taken) *)
}

val fig4 : unit -> fig4

type complexity_point = {
  label : string;
  instructions : int;
  evaluations : int;  (** Figure 5 y-axis *)
  sub_operations : int;  (** Figure 6 y-axis *)
}

(** The complexity sweep: every suite benchmark plus generated programs of
    increasing size. *)
val fig5_6 : ?sizes:int list -> unit -> complexity_point list

(** Least-squares fit of a metric against instruction count:
    [(intercept, slope, r²)]. *)
val linear_fit :
  complexity_point list -> metric:(complexity_point -> int) -> float * float * float

type accuracy_result = {
  suite : Suite.category;
  weighted : bool;
  curves : (string * float list) list;  (** predictor -> cumulative curve *)
  mean_errors : (string * float) list;  (** predictor -> mean |error| pp *)
}

(** Figures 7/8 data: per-suite, unweighted and weighted. Omitting
    [category] measures both suites. *)
val accuracy : ?category:Suite.category -> unit -> accuracy_result list

val render_fig4 : fig4 -> string

val render_complexity :
  complexity_point list -> metric:(complexity_point -> int) -> metric_name:string -> string

val render_accuracy : accuracy_result -> string
