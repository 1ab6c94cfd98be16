// Package calendar maps simulation day offsets to calendar structure
// (day-of-week, month, year) for the temporal-factor analyses
// (Figs 3 and 4). The observation window starts on 1 Jan 2012, matching
// the paper's 2012-2013(+) span. The calendar fields are integer
// arithmetic on the day number; only Date goes through package time.
package calendar

import (
	"fmt"
	"time"
)

// Epoch is simulation day 0.
var Epoch = time.Date(epochYear, time.January, 1, 0, 0, 0, 0, time.UTC)

const (
	epochYear = 2012
	// epochDays is Epoch counted in days from 1 March 0000 (proleptic
	// Gregorian), the origin of the civil-date arithmetic below.
	epochDays = 734808
)

// Date returns the calendar date of a simulation day.
func Date(day int) time.Time { return Epoch.AddDate(0, 0, day) }

// civilDate is a simulation day's calendar year, 0-based month and
// 0-based day of the year.
type civilDate struct{ year, month, yday int }

// civil computes a simulation day's calendar fields in integer
// arithmetic (Howard Hinnant's days-to-civil algorithm). It counts
// 400-year eras of 146097 days from 1 March 0000, so a leap day is the
// last day of its year.
func civil(day int) civilDate {
	z := day + epochDays
	era := z / 146097
	if z%146097 < 0 {
		era-- // floor division for days before 1 March 0000
	}
	doe := z - era*146097                                  // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day from 1 March, [0, 365]
	mp := (5*doy + 2) / 153                                // month from March, [0, 11]
	if mp >= 10 {
		// January and February close the March-based year.
		return civilDate{era*400 + yoe + 1, mp - 10, doy - 306}
	}
	leap := 0
	if yoe%4 == 0 && (yoe%100 != 0 || yoe == 0) {
		leap = 1
	}
	return civilDate{era*400 + yoe, mp + 2, doy + 59 + leap}
}

// Weekday returns the day of week (0 = Sunday ... 6 = Saturday); day 0,
// 1 Jan 2012, was a Sunday.
func Weekday(day int) int { return (day%7 + 7) % 7 }

// IsWeekend reports whether the day falls on Saturday or Sunday.
func IsWeekend(day int) bool {
	w := Weekday(day)
	return w == 0 || w == 6
}

// Month returns the month index (0 = January ... 11 = December).
func Month(day int) int { return civil(day).month }

// YearIndex returns the number of whole years since the epoch year
// (0 for 2012, 1 for 2013, ...).
func YearIndex(day int) int { return civil(day).year - epochYear }

// DayOfYear returns the 0-based day within the calendar year.
func DayOfYear(day int) int { return civil(day).yday }

// WeekOfYear returns the 0-based week within the calendar year (0-52),
// the paper's Table III "Week" feature.
func WeekOfYear(day int) int {
	w := DayOfYear(day) / 7
	if w > 52 {
		w = 52
	}
	return w
}

// WeekNames lists the 53 week labels ("W01".."W53").
func WeekNames() []string {
	out := make([]string, 53)
	for i := range out {
		out[i] = fmt.Sprintf("W%02d", i+1)
	}
	return out
}

// WeekdayNames lists day labels Sunday-first, matching Fig 3's axis.
var WeekdayNames = []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}

// MonthNames lists month labels, matching Fig 4's axis.
var MonthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
