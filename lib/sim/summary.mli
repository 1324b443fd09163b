(** Least-squares fits for experiment results.

    The Table 1 bench fits a power law in log-log space to check the
    measured communication complexity against the paper's exponents
    (e.g. the synchronous protocol's bytes should grow as ~n³). *)

type fit = {
  slope : float;      (** exponent of the fitted power law *)
  intercept : float;  (** log-space intercept *)
  r_squared : float;  (** goodness of fit *)
}

val linear_fit : (float * float) list -> fit
(** Ordinary least squares over [(x, y)] pairs.  Raises
    [Invalid_argument] with fewer than two points or zero variance
    in x. *)

val power_law_fit : (float * float) list -> fit
(** Fit [y = c·x^slope] by OLS in log-log space.  All coordinates must
    be positive. *)
