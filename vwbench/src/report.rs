//! What one run prints: every metric as `workload metric value unit`, then
//! the result object of the benchmark contract as the last line.

use crate::json::Json;
use crate::spec::Metric;
use crate::verify::Checks;

pub struct Report {
    pub workload: &'static str,
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context lines (sample counts, per-template medians), printed as
    /// comments above the metrics.
    pub info: Vec<String>,
}

impl Report {
    /// The metrics in the order of `specs`. Every metric of the contract must
    /// have been measured and be a finite number, and nothing else may be
    /// reported: anything else is a defect of the harness, not a result.
    fn ordered(&self, specs: &'static [Metric]) -> Result<Vec<(&'static Metric, f64)>, String> {
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(name, _)| !specs.iter().any(|s| s.name == *name))
        {
            return Err(format!("metric '{}' is not in the contract", name));
        }
        specs
            .iter()
            .map(|spec| {
                let mut values = self.metrics.iter().filter(|(n, _)| *n == spec.name);
                match (values.next(), values.next()) {
                    (Some((_, v)), None) if v.is_finite() => Ok((spec, *v)),
                    (Some((_, v)), None) => Err(format!("metric '{}' is {}", spec.name, v)),
                    (None, _) => Err(format!("metric '{}' was not measured", spec.name)),
                    (Some(_), Some(_)) => Err(format!("metric '{}' was reported twice", spec.name)),
                }
            })
            .collect()
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
    pub fn result_json(&self, specs: &'static [Metric]) -> Result<Json, String> {
        let metrics = self
            .ordered(specs)?
            .into_iter()
            .map(|(spec, v)| {
                (
                    spec.name,
                    Json::obj(vec![
                        ("value", Json::Num(v)),
                        ("unit", Json::str(spec.unit)),
                    ]),
                )
            })
            .collect();
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]))
    }

    /// Print the report; the result object is the last line of stdout.
    pub fn print(&self, specs: &'static [Metric]) -> Result<(), String> {
        let result = self.result_json(specs)?;
        for line in &self.info {
            println!("# {}", line);
        }
        for m in &self.checks.messages {
            println!("# FAILED: {}", m);
        }
        println!(
            "# {} checked {} failed {} error_rate {}",
            self.workload,
            self.checks.attempted,
            self.checks.failed,
            self.checks.failed as f64 / self.checks.attempted.max(1) as f64
        );
        for (spec, v) in self.ordered(specs)? {
            println!("{} {} {} {}", self.workload, spec.name, v, spec.unit);
        }
        println!("{}", result.render());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn full_report() -> Report {
        Report {
            workload: "scan",
            checks: Checks {
                attempted: 10,
                failed: 0,
                messages: vec![],
            },
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            info: vec![],
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let json = full_report().result_json(END_TO_END).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let metrics = json.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
        // One line, and it survives a round trip.
        let line = json.render();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn missing_extra_and_non_finite_metrics_are_refused() {
        let mut r = full_report();
        r.metrics.pop();
        assert!(r
            .result_json(END_TO_END)
            .unwrap_err()
            .contains("was not measured"));
        let mut r = full_report();
        r.metrics.push(("made_up", 1.0));
        assert!(r
            .result_json(END_TO_END)
            .unwrap_err()
            .contains("not in the contract"));
        let mut r = full_report();
        r.metrics[2].1 = f64::NAN;
        assert!(r.result_json(END_TO_END).unwrap_err().contains("NaN"));
        let mut r = full_report();
        r.checks.failed = 1;
        assert_eq!(
            r.result_json(END_TO_END).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
