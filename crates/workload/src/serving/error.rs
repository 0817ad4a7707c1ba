//! Typed construction errors for the serving module.
//!
//! Every serving constructor has a form that returns [`ServingError`]
//! on bad input, so library callers surface bad configurations as data
//! instead of process aborts. Four panicking wrappers remain, for the
//! host-time benchmark in `perfbench/`: `Request::new`,
//! `RequestMix::custom`, `ArrivalProcess::explicit` and
//! `Fleet::uniform`.

use std::error::Error;
use std::fmt;

/// Why a serving request, mix, arrival process or schedule could not be
/// constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingError {
    /// A request with `output == 0` never occupies a decode slot.
    ZeroOutputRequest,
    /// A mix with no requests schedules nothing.
    EmptyMix,
    /// A schedule with zero decode slots can never admit a request.
    ZeroCapacity,
    /// A prefill chunk of zero tokens makes no admission progress.
    ZeroPrefillChunk,
    /// A per-step arrival rate outside `(0, 1]` either never produces a
    /// request (the schedule would not terminate) or is not a
    /// probability.
    ArrivalRateOutOfRange(f64),
    /// A background rate outside `[0, 1]` is not a probability.
    BackgroundRateOutOfRange(f64),
    /// A periodic process needs a period of at least one step.
    ZeroArrivalPeriod,
    /// A burst of zero requests is no burst.
    ZeroBurst,
    /// A diurnal trough above the peak inverts the day.
    DiurnalRangeInverted {
        /// The off-peak arrival rate.
        trough: f64,
        /// The peak arrival rate.
        peak: f64,
    },
    /// A KV page of zero tokens allocates nothing.
    ZeroKvPage,
    /// A study of paged residency was handed a bucketed scenario.
    PagedKvRequired,
    /// A bimodal mix's long-request share is a percentage, at most 100.
    LongShareOutOfRange(usize),
    /// A prompt range whose lower bound exceeds its upper bound.
    PromptRangeInverted {
        /// The shortest prompt asked for.
        lo: usize,
        /// The longest prompt asked for.
        hi: usize,
    },
    /// A shared prefix longer than the shortest prompt cannot be a
    /// prefix of every request.
    SharedPrefixExceedsPrompt {
        /// The declared shared-prefix length.
        shared: usize,
        /// The shortest prompt in the mix.
        min_prompt: usize,
    },
    /// A request whose prompt alone fills the model's context window can
    /// never generate a token; the schedule rejects it at admission.
    ContextOverflow {
        /// The offending request's index in the mix.
        request: usize,
        /// Tokens the request needs before generating anything
        /// (prompt + 1).
        needed: usize,
        /// The model's context window.
        max_context: usize,
    },
    /// A KV bucket of zero tokens cannot round an attend length.
    ZeroKvBucket,
    /// A shared prompt prefix only pays off under paged residency:
    /// bucketed accounting has no pages to deduplicate, so declaring a
    /// prefix without a KV page is a contradiction, not a no-op.
    SharedPrefixRequiresPagedKv,
    /// A fleet with zero instances routes every request nowhere.
    EmptyFleet,
    /// An explicit arrival trace must be sorted: requests are indexed in
    /// arrival order, so a step sequence that goes backwards in time
    /// reorders the stream it claims to replay.
    UnsortedArrivals {
        /// Index of the first out-of-order entry.
        index: usize,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::ZeroOutputRequest => {
                write!(f, "a request must generate at least one token")
            }
            ServingError::EmptyMix => write!(f, "a request mix cannot be empty"),
            ServingError::ZeroCapacity => {
                write!(f, "a schedule needs at least one decode slot")
            }
            ServingError::ZeroPrefillChunk => {
                write!(f, "a prefill chunk must cover at least one token")
            }
            ServingError::ArrivalRateOutOfRange(rate) => write!(
                f,
                "arrival rate {rate} must lie in (0, 1] requests per step"
            ),
            ServingError::BackgroundRateOutOfRange(rate) => write!(
                f,
                "background arrival rate {rate} must lie in [0, 1] requests per step"
            ),
            ServingError::ZeroArrivalPeriod => {
                write!(f, "an arrival period must span at least one step")
            }
            ServingError::ZeroBurst => {
                write!(f, "a burst must carry at least one request")
            }
            ServingError::DiurnalRangeInverted { trough, peak } => write!(
                f,
                "diurnal trough rate {trough} exceeds the peak rate {peak}"
            ),
            ServingError::ZeroKvPage => {
                write!(f, "a KV page must cover at least one token")
            }
            ServingError::PagedKvRequired => {
                write!(f, "this study needs a paged KV layout; set a KV page")
            }
            ServingError::LongShareOutOfRange(percent) => {
                write!(f, "long-request share {percent}% exceeds 100%")
            }
            ServingError::PromptRangeInverted { lo, hi } => {
                write!(f, "prompt range {lo}..={hi} is inverted")
            }
            ServingError::SharedPrefixExceedsPrompt { shared, min_prompt } => write!(
                f,
                "shared prefix of {shared} tokens exceeds the shortest prompt ({min_prompt} tokens)"
            ),
            ServingError::ContextOverflow {
                request,
                needed,
                max_context,
            } => write!(
                f,
                "request {request} needs {needed} context tokens but the model caps at {max_context}"
            ),
            ServingError::ZeroKvBucket => {
                write!(f, "a KV bucket must cover at least one token")
            }
            ServingError::SharedPrefixRequiresPagedKv => write!(
                f,
                "a shared prefix needs a paged KV layout; bucketed residency has no pages to share"
            ),
            ServingError::EmptyFleet => {
                write!(f, "a fleet needs at least one instance")
            }
            ServingError::UnsortedArrivals { index } => write!(
                f,
                "explicit arrival steps must be non-decreasing; entry {index} goes back in time"
            ),
        }
    }
}

impl Error for ServingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<ServingError> = vec![
            ServingError::ZeroOutputRequest,
            ServingError::EmptyMix,
            ServingError::ZeroCapacity,
            ServingError::ZeroPrefillChunk,
            ServingError::ArrivalRateOutOfRange(1.5),
            ServingError::BackgroundRateOutOfRange(-0.25),
            ServingError::ZeroArrivalPeriod,
            ServingError::ZeroBurst,
            ServingError::DiurnalRangeInverted {
                trough: 0.8,
                peak: 0.2,
            },
            ServingError::ZeroKvPage,
            ServingError::PagedKvRequired,
            ServingError::LongShareOutOfRange(101),
            ServingError::PromptRangeInverted { lo: 384, hi: 64 },
            ServingError::SharedPrefixExceedsPrompt {
                shared: 96,
                min_prompt: 64,
            },
            ServingError::ContextOverflow {
                request: 3,
                needed: 1025,
                max_context: 1024,
            },
            ServingError::ZeroKvBucket,
            ServingError::SharedPrefixRequiresPagedKv,
            ServingError::EmptyFleet,
            ServingError::UnsortedArrivals { index: 2 },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error messages start lowercase: {msg}"
            );
        }
        assert!(ServingError::ArrivalRateOutOfRange(1.5)
            .to_string()
            .contains("1.5"));
    }
}
